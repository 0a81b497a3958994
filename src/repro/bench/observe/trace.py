"""Deterministic trace correlation across the worker/broker/store layers.

One trial's journey — submit → lease → rip/cache → act → post → collect —
crosses three processes (submitter, worker, collector) and four possible
execution paths.  This module makes that journey reconstructable from
merged JSONL without any runtime coordination, by deriving every id from
the same identity fields that already make the paths byte-identical:

``trial`` traces
    :func:`trial_trace_id` hashes ``seed|task_id|setting_key|trial`` — the
    exact tuple :func:`repro.bench.engine.trial_seed` derives the trial's
    RNG seed from — so a trial has the *same* trace id whether it ran
    serially, in a process pool, from a shard file, or off either broker.
``shard`` traces
    :func:`manifest_trace_id` hashes the manifest's plan-identity fields
    plus its shard index, so submitter and every worker agree without
    storing an id in the (format-versioned) manifest JSON.
``plan`` traces
    :func:`plan_trace_id` adds the broker-side plan *name* to the plan
    identity, so two tenants submitting the same grid under different
    names stay distinguishable.

Span ids are derived, not random (:func:`span_id_for`), so structurally
related events agree on ids across processes: a worker's lease span and
the trial spans executed under it link up by construction.  Parent links
may cross trace boundaries (trial → shard → plan); :func:`build_trace`
follows that closure, which is exactly how ``repro trace show TRACE_ID``
pulls a trial's submit/lease/post/collect context into one timeline.

The ambient context is a *thread-local* span stack (:func:`push` /
:func:`pop` / :func:`current`): instrumented seams push their span around
nested work so leaf events (``store_retry`` inside a broker post,
``cache_hit`` inside a trial's rip phase) adopt the right parent via
:func:`leaf`.  Heartbeat threads get their context passed explicitly —
thread-locals don't cross threads, by design.

Nothing here runs when telemetry is off: every caller already guards with
``if sink:``, so with the NullSink no hash, no stack push and no
``time.time()`` call ever happens (the overhead guard in
``benchmarks/test_telemetry_overhead.py`` pins that contract).
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.telemetry import TelemetryEvent


#: Hex digits kept from the sha256; 64 bits of id space is plenty for a
#: benchmark fleet and keeps JSONL lines and rendered timelines readable.
_ID_HEX = 16


def _derive(*parts: object) -> str:
    text = "|".join(str(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:_ID_HEX]


def trial_trace_id(spec) -> str:
    """The deterministic trace id of one trial.

    ``spec`` is duck-typed (``task_id``/``setting_key``/``trial``/``seed``,
    i.e. a :class:`~repro.bench.engine.TrialSpec`).  Because ``seed`` is
    itself derived from the run seed and the spec identity, the id is
    byte-identical across all four execution paths for the same run.
    """
    return _derive("trial", spec.seed, spec.task_id, spec.setting_key,
                   spec.trial)


def manifest_trace_id(manifest) -> str:
    """The deterministic trace id of one shard manifest (duck-typed)."""
    return _derive("shard", manifest.seed, manifest.trials,
                   manifest.fingerprint, manifest.shard_count,
                   ",".join(manifest.setting_keys),
                   ",".join(manifest.task_ids), manifest.shard_index)


def plan_trace_id(name: str, identity: Sequence[object]) -> str:
    """The deterministic trace id of one named plan submission.

    Derived from the plan *name* plus ``identity``, the plan's
    ``plan_identity()`` tuple, which every manifest replicates and the
    broker's plan header stores, so the submitter (holding the plan), a
    worker (holding one lease) and the collector (holding only the plan
    name) all derive it independently.
    """
    shard_count, seed, trials, fingerprint, setting_keys, task_ids = identity
    return _derive("plan", name, seed, trials, fingerprint, shard_count,
                   ",".join(setting_keys), ",".join(task_ids))


def span_id_for(trace_id: str, name: str, qualifier: object = "") -> str:
    """A span id derived from its trace, name and disambiguator.

    Derivation (not randomness) is what lets separate processes agree on
    structural spans — e.g. every worker knows the plan's ``submit`` span
    id without having seen the submit happen.
    """
    return _derive("span", trace_id, name, qualifier)


@dataclass(frozen=True)
class SpanContext:
    """One span's coordinates; attach to events via :meth:`attach`."""

    trace_id: str
    span_id: str
    parent_span_id: str = ""

    def child(self, name: str, qualifier: object = "") -> "SpanContext":
        """A child span in the same trace."""
        return SpanContext(
            trace_id=self.trace_id,
            span_id=span_id_for(self.trace_id, name, qualifier),
            parent_span_id=self.span_id)

    def attach(self, event: TelemetryEvent,
               duration_s: Optional[float] = None) -> TelemetryEvent:
        """Stamp ``event`` as *this* span (wall-clock ``ts`` included)."""
        return event.with_trace(
            trace_id=self.trace_id, span_id=self.span_id,
            parent_span_id=self.parent_span_id, duration_s=duration_s,
            ts=time.time())


def trial_context(spec, parent: Optional["SpanContext"] = None) -> SpanContext:
    """The root span of one trial's trace, optionally linked to the
    ambient span (a worker's lease span) it executes under."""
    trace_id = trial_trace_id(spec)
    return SpanContext(
        trace_id=trace_id,
        span_id=span_id_for(trace_id, "trial"),
        parent_span_id=parent.span_id if parent is not None else "")


def plan_context(name: str, identity: Sequence[object]) -> SpanContext:
    """The plan trace's root (``submit``) span.

    Derivable by any process holding the plan name and its identity tuple
    (from *any* one of its manifests, or the broker's plan header) — which
    is how a worker's lease span and a collector's collect span link to a
    submit they never saw happen.
    """
    trace_id = plan_trace_id(name, identity)
    return SpanContext(trace_id=trace_id,
                       span_id=span_id_for(trace_id, "submit"))


def shard_context(plan_name: str, manifest, name: str,
                  qualifier: object = "") -> SpanContext:
    """A shard-trace span parented (cross-trace) to the plan submit span.

    The parent link crossing from the shard trace into the plan trace is
    what lets :func:`build_trace` pull a trial's submit/collect context
    into its timeline without any id ever being stored.
    """
    trace_id = manifest_trace_id(manifest)
    return SpanContext(
        trace_id=trace_id,
        span_id=span_id_for(trace_id, name, qualifier),
        parent_span_id=plan_context(plan_name,
                                    manifest.plan_identity()).span_id)


# ----------------------------------------------------------------------
# the ambient (thread-local) span stack
# ----------------------------------------------------------------------
_STACK = threading.local()


def current() -> Optional[SpanContext]:
    """The innermost active span on this thread, if any."""
    stack = getattr(_STACK, "spans", None)
    return stack[-1] if stack else None


def push(ctx: SpanContext) -> SpanContext:
    """Activate ``ctx`` on this thread; pair with :func:`pop`."""
    stack = getattr(_STACK, "spans", None)
    if stack is None:
        stack = _STACK.spans = []
    stack.append(ctx)
    return ctx


def pop(ctx: SpanContext) -> None:
    """Deactivate ``ctx``; tolerant of a mismatched stack (an exception
    may have unwound past an inner pop) by removing the newest match."""
    stack = getattr(_STACK, "spans", None)
    if not stack:
        return
    if stack[-1] == ctx:
        stack.pop()
        return
    for index in range(len(stack) - 1, -1, -1):
        if stack[index] == ctx:
            del stack[index]
            return


def leaf(event: TelemetryEvent, name: Optional[str] = None,
         qualifier: object = "",
         duration_s: Optional[float] = None) -> TelemetryEvent:
    """Stamp ``event`` as a leaf span under the ambient context.

    With no ambient context the event still gets a wall-clock ``ts`` (so
    merged timelines sort) but no trace fields — a serial run's cache
    events, for example, adopt the trial context that run_spec pushed,
    while a bare ``ArtifactCache`` call stays untraced.
    """
    ctx = current()
    if ctx is not None:
        span = span_id_for(ctx.trace_id, name or event.name, qualifier)
        return event.with_trace(trace_id=ctx.trace_id, span_id=span,
                                parent_span_id=ctx.span_id,
                                duration_s=duration_s, ts=time.time())
    return event.with_trace(duration_s=duration_s, ts=time.time())


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------
@dataclass
class Trace:
    """One reconstructed trace: the requested id plus its linked closure.

    ``events`` is every event whose trace is in the closure, in timeline
    order (wall-clock ``ts``, then file order for ties — ts is stamped by
    independent machines, so ordering across hosts is approximate by
    nature).  ``trace_ids`` is the closure itself: a trial trace links up
    to its shard trace (via the lease-span parent) and the shard to its
    plan trace (via the submit-span parent).
    """

    trace_id: str
    trace_ids: Tuple[str, ...] = ()
    events: List[Dict[str, object]] = field(default_factory=list)

    def event_names(self) -> set:
        return {str(event.get("event", "")) for event in self.events}

    def spans(self) -> Dict[str, List[Dict[str, object]]]:
        """Events grouped by span id (one span may carry several events,
        e.g. ``trial_started`` and ``trial_finished``)."""
        grouped: Dict[str, List[Dict[str, object]]] = {}
        for event in self.events:
            span = str(event.get("span_id", ""))
            grouped.setdefault(span, []).append(event)
        return grouped

    def as_dict(self) -> Dict[str, object]:
        return {"trace_id": self.trace_id,
                "trace_ids": list(self.trace_ids),
                "events": [dict(event) for event in self.events]}


def build_trace(events: Iterable[Dict[str, object]],
                trace_id: str) -> Trace:
    """Reconstruct ``trace_id``'s timeline from merged JSONL event dicts.

    Follows parent-span links across trace boundaries to a fixed point:
    starting from the requested trace, any included event whose parent
    span lives in another trace pulls that trace into the closure.  For a
    trial trace this closure is exactly its submit → lease → post →
    collect context; unrelated trials (which link *into* the shard trace
    but are not linked *from* it) stay out.
    """
    ordered = list(events)
    span_owner: Dict[str, str] = {}
    by_trace: Dict[str, List[Tuple[int, Dict[str, object]]]] = {}
    for index, event in enumerate(ordered):
        owner = str(event.get("trace_id", "") or "")
        if not owner:
            continue
        by_trace.setdefault(owner, []).append((index, event))
        span = str(event.get("span_id", "") or "")
        if span:
            span_owner.setdefault(span, owner)
    included = set()
    frontier = [trace_id]
    while frontier:
        trace = frontier.pop()
        if trace in included or trace not in by_trace:
            continue
        included.add(trace)
        for _, event in by_trace[trace]:
            parent = str(event.get("parent_span_id", "") or "")
            owner = span_owner.get(parent)
            if owner is not None and owner not in included:
                frontier.append(owner)
    collected = [pair for trace in included for pair in by_trace[trace]]
    collected.sort(key=lambda pair: (float(pair[1].get("ts") or 0.0),
                                     pair[0]))
    return Trace(trace_id=trace_id,
                 trace_ids=tuple(sorted(included)),
                 events=[event for _, event in collected])


def _depths(events: Sequence[Dict[str, object]]) -> Dict[int, int]:
    """Indent depth per event index, from parent-span chain length."""
    span_depth: Dict[str, int] = {}
    depths: Dict[int, int] = {}
    # Two passes: spans usually appear before their children in timeline
    # order, but clock skew may reorder them — resolve what we can, then
    # default unresolved parents to depth 1.
    for _ in range(2):
        for index, event in enumerate(events):
            span = str(event.get("span_id", ""))
            parent = str(event.get("parent_span_id", "") or "")
            if not parent:
                depth = 0
            elif parent in span_depth:
                depth = span_depth[parent] + 1
            else:
                continue
            depths[index] = depth
            if span:
                span_depth.setdefault(span, depth)
    for index in range(len(events)):
        depths.setdefault(index, 1)
    return depths


def render_trace(trace: Trace) -> str:
    """A human-readable timeline for ``repro trace show``."""
    if not trace.events:
        return f"trace {trace.trace_id}: no events found"
    base = min(float(event.get("ts") or 0.0) for event in trace.events
               if event.get("ts") is not None) if any(
                   event.get("ts") is not None for event in trace.events) \
        else 0.0
    depths = _depths(trace.events)
    lines = [f"trace {trace.trace_id} "
             f"({len(trace.events)} event(s) across "
             f"{len(trace.trace_ids)} linked trace(s))"]
    skip = {"event", "ts", "trace_id", "span_id", "parent_span_id",
            "duration_s", "phases"}
    for index, event in enumerate(trace.events):
        ts = event.get("ts")
        offset = f"+{float(ts) - base:8.3f}s" if ts is not None \
            else " " * 10
        indent = "  " * depths[index]
        detail = " ".join(
            f"{key}={value}" for key, value in event.items()
            if key not in skip)
        duration = event.get("duration_s")
        if duration is not None:
            detail += f" ({float(duration):.3f}s)"
        lines.append(f"{offset} {indent}{event.get('event', '?')} "
                     f"{detail}".rstrip())
    return "\n".join(lines)
