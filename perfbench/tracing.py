"""In-memory spans around the program's layer functions.

The wrappers are installed where the callers bind the functions
(``blockadesim.cli.*`` and ``blockadesim.analysis.*``), so the program
itself is unchanged. Every span records its name, start, end, parent span
and pass id. A layer's self time is its span's duration minus the part of
that interval its child spans cover; time inside a pass that no layer
span covers is the untraced gap, so per pass

    sum(layer self times) + gap == pass wall time.

A layer whose functions are all missing (renamed or moved by a later
change to the program) is reported as absent and the run goes on.
Spans assume a single thread: the parent of a span is the innermost open
span.
"""

from __future__ import annotations

import functools
import importlib
import operator
import os
import time
from dataclasses import dataclass

import numpy as np

CLI = "blockadesim.cli"
ANALYSIS = "blockadesim.analysis"

_WRITERS = (
    "write_curve_csv", "write_ensemble_csv", "write_fit_csv",
    "write_sweep_csv", "write_exponents_csv", "write_trajectory_csv",
)

# layer -> (module, attribute) pairs to wrap
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.config": tuple(
        (CLI, f) for f in ("load_config", "resolve_params", "resolve_cloud", "resolve_time_grid")
    ),
    "cloud.partition": ((CLI, "partition_superatoms"), (ANALYSIS, "partition_superatoms")),
    "superatom.simulate": ((CLI, "simulate_cloud"), (ANALYSIS, "simulate_cloud")),
    "analysis.fit": ((CLI, "fit_saturation"), (ANALYSIS, "fit_saturation")),
    "analysis.sweep": ((CLI, "scaling_experiment"),),
    "exact.basis": ((CLI, "full_basis"), (CLI, "restricted_basis")),
    "exact.build": ((CLI, "build_hamiltonian"),),
    "exact.evolve": ((CLI, "evolve"),),
    "exact.observables": ((CLI, "rydberg_number"), (CLI, "w_state_fidelity")),
    "runio.write": tuple((CLI, w) for w in _WRITERS),
    "runio.digest": ((CLI, "sha256_file"), (CLI, "write_manifest")),
}

# per-layer time metric -> layer whose self time it reports
TIME_METRICS = {
    "cli.config_s": "cli.config",
    "cloud.partition_s": "cloud.partition",
    "superatom.simulate_s": "superatom.simulate",
    "analysis.fit_s": "analysis.fit",
    "analysis.sweep_self_s": "analysis.sweep",
    "exact.basis_s": "exact.basis",
    "exact.build_s": "exact.build",
    "exact.evolve_s": "exact.evolve",
    "exact.observables_s": "exact.observables",
    "runio.write_s": "runio.write",
    "runio.digest_s": "runio.digest",
}
COUNT_UNITS = {
    "cloud.entries": "count",
    "cloud.coverage": "ratio",
    "superatom.cos_evals": "count",
    "superatom.distinct_freq_share": "ratio",
    "analysis.fit_iterations": "count",
    "analysis.converged_share": "ratio",
    "exact.basis_states": "count",
    "exact.nnz": "count",
    "exact.amplitude_mb": "MB",
    "runio.bytes_written": "B",
}
TRACE_UNITS = {
    "trace.wall_s": "s",
    "trace.gap_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_layers": "count",
}
# every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **COUNT_UNITS,
    **TRACE_UNITS,
}


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int


class Tracer:
    """Collects spans and per-pass counters in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = {}
        self.unavailable: set[str] = set()
        self._stack: list[int] = []
        self.pass_id = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent, self.pass_id)
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span.span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} closed while {popped} is open")

    def record(self, key: str, value: float, combine=operator.add) -> None:
        """Fold ``value`` into this pass's counter (sum unless told otherwise)."""
        bucket = self.counters.setdefault(self.pass_id, {})
        bucket[key] = combine(bucket[key], value) if key in bucket else value


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_partition(t: Tracer, args, kwargs, result) -> None:
    t.record("cloud.entries", len(result))
    spec = _arg(args, kwargs, 0, "spec")
    t.record("cloud.coverage", result.total_atoms_covered / spec.n_atoms, min)


def _count_simulate(t: Tracer, args, kwargs, result) -> None:
    ensemble = _arg(args, kwargs, 0, "ensemble")
    times = _arg(args, kwargs, 2, "time_grid")
    t.record("superatom.cos_evals", len(ensemble) * len(times))
    t.record("superatom.entries", len(ensemble))
    t.record("superatom.distinct", np.unique(ensemble.n_per).size)


def _count_fit(t: Tracer, args, kwargs, result) -> None:
    t.record("analysis.fits", 1)
    t.record("analysis.converged", bool(result.converged))
    t.record("analysis.fit_iterations", result.n_iterations)


def _count_basis(t: Tracer, args, kwargs, result) -> None:
    t.record("exact.basis_states", result.n_states)


def _count_build(t: Tracer, args, kwargs, result) -> None:
    t.record("exact.nnz", result.matrix.nnz)


def _count_evolve(t: Tracer, args, kwargs, result) -> None:
    dim = _arg(args, kwargs, 0, "hamiltonian").matrix.shape[0]
    times = _arg(args, kwargs, 2, "time_grid")
    t.record("exact.amplitude_mb", dim * len(times) * 16 / 1e6, max)


def _count_write(t: Tracer, args, kwargs, result) -> None:
    t.record("runio.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


_COUNTERS = {
    "cloud.partition": _count_partition,
    "superatom.simulate": _count_simulate,
    "analysis.fit": _count_fit,
    "exact.basis": _count_basis,
    "exact.build": _count_build,
    "exact.evolve": _count_evolve,
    "runio.write": _count_write,
}


def _wrap(tracer: Tracer, layer: str, fn):
    counter = _COUNTERS.get(layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if counter is not None:
            try:
                counter(tracer, args, kwargs, result)
            except (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError):
                tracer.unavailable.add(layer)
        return result

    return traced


class Instrumentation:
    """Installs and removes the layer wrappers."""

    def __init__(self, tracer: Tracer):
        self.absent: list[str] = []
        self._targets: list[tuple[object, str, object]] = []
        for layer, targets in LAYERS.items():
            found = False
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if callable(original):
                    self._targets.append((module, attr, _wrap(tracer, layer, original)))
                    found = True
            if not found:
                self.absent.append(layer)

    def install(self) -> None:
        for module, attr, wrapper in self._targets:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, wrapper in self._targets:
            setattr(module, attr, wrapper.__wrapped__)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = (span.end - span.start) - covered
    return result


def pass_breakdown(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per pass: wall time, self time per layer, and the untraced gap.

    The pass root span (no parent) gives the wall time; spans whose name
    is not a layer (the pass and its CLI calls) make up the gap.
    """
    own = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.pass_id, {"wall": 0.0, "gap": 0.0})
        if span.parent is None:
            row["wall"] += span.end - span.start
        if span.name in LAYERS:
            row[span.name] = row.get(span.name, 0.0) + own[span.span_id]
        else:
            row["gap"] += own[span.span_id]
    return out


def layer_metrics(tracer: Tracer, absent: list[str], traced_passes: list[int],
                  untraced_walls: list[float]) -> dict[str, dict]:
    """Per-layer metrics: means over the traced passes, so they add up."""
    rows = pass_breakdown([s for s in tracer.spans if s.pass_id in traced_passes])
    n = len(traced_passes)

    def mean(key: str) -> float:
        return sum(rows[p].get(key, 0.0) for p in traced_passes) / n

    def total(key: str) -> float:
        return sum(tracer.counters.get(p, {}).get(key, 0.0) for p in traced_passes)

    def share(num: str, den: str) -> float:
        return total(num) / total(den) if total(den) else 0.0

    def extreme(key: str, pick) -> float:
        values = [tracer.counters[p][key] for p in traced_passes
                  if key in tracer.counters.get(p, {})]
        return pick(values) if values else 0.0

    values = {name: mean(layer) for name, layer in TIME_METRICS.items()}
    values.update({
        "cloud.entries": total("cloud.entries") / n,
        "cloud.coverage": extreme("cloud.coverage", min),
        "superatom.cos_evals": total("superatom.cos_evals") / n,
        "superatom.distinct_freq_share": share("superatom.distinct", "superatom.entries"),
        "analysis.fit_iterations": total("analysis.fit_iterations") / n,
        "analysis.converged_share": share("analysis.converged", "analysis.fits"),
        "exact.basis_states": total("exact.basis_states") / n,
        "exact.nnz": total("exact.nnz") / n,
        "exact.amplitude_mb": extreme("exact.amplitude_mb", max),
        "runio.bytes_written": total("runio.bytes_written") / n,
        "trace.wall_s": mean("wall"),
        "trace.gap_s": mean("gap"),
        "trace.untraced_wall_s": float(np.median(untraced_walls)),
        "trace.overhead_s": float(
            np.median([rows[p]["wall"] for p in traced_passes]) - np.median(untraced_walls)
        ),
        "trace.absent_layers": float(len(absent)),
    })
    return {name: {"value": v, "unit": PER_LAYER_UNITS[name]} for name, v in values.items()}
