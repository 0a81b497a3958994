"""The fleet observability plane.

Two modules build fleet aggregation on top of the PR 5/PR 7 telemetry
substrate:

:mod:`repro.bench.observe.trace`
    Deterministic trace correlation: trial/shard/plan trace ids derived
    from the same identity fields that make the four execution paths
    byte-identical, a thread-local span-context stack for the
    instrumented seams, and the reconstruction that turns merged JSONL
    from any number of workers back into one per-trial timeline.
:mod:`repro.bench.observe.fleet`
    :class:`~repro.bench.observe.fleet.FleetAggregator` merges N
    per-worker :class:`~repro.bench.telemetry.MetricsSnapshotSink` files
    (and/or live JSONL tails) into one staleness-aware gauges object,
    plus the OpenMetrics textfile writer/parser (no dependencies).
"""

from repro.bench.observe.fleet import (
    FleetAggregator,
    FleetGauges,
    WorkerSnapshot,
    parse_openmetrics,
    render_openmetrics,
    write_promfile,
)
from repro.bench.observe.trace import (
    ObserveError,
    SpanContext,
    Trace,
    build_trace,
    manifest_trace_id,
    plan_trace_id,
    render_trace,
    span_id_for,
    trial_trace_id,
)

__all__ = [
    "FleetAggregator",
    "FleetGauges",
    "ObserveError",
    "SpanContext",
    "Trace",
    "WorkerSnapshot",
    "build_trace",
    "manifest_trace_id",
    "parse_openmetrics",
    "plan_trace_id",
    "render_openmetrics",
    "render_trace",
    "span_id_for",
    "trial_trace_id",
    "write_promfile",
]
