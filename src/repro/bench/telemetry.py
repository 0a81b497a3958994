"""Structured telemetry: typed events, pluggable sinks, zero-cost when off.

The scaling stack (engine → shards → broker → object store) executes one
grid through four byte-identical paths, but byte-identical output says
nothing about *where the time went*.  This module is the measurement
substrate: instrumentation points across the stack emit small typed events
(:class:`TrialStarted`/:class:`TrialFinished` from the runner and executors,
:class:`CacheHit`/:class:`CacheMiss`/:class:`CacheEvicted` from the
artifact cache, :class:`LeaseAcquired`/:class:`LeaseRenewed`/
:class:`LeaseLost`/:class:`ManifestAbandoned`/:class:`ShardPosted`/
:class:`ShardCollected`/:class:`WorkerIdle`/:class:`PlanSubmitted` from
the transport layer and :class:`CasRetry`/:class:`StoreRetry` from the
object store) into an :class:`EventSink`.

Three sinks ship here, and :class:`TeeSink` fans events out to several:

:class:`NullSink`
    The default.  Falsy, so every instrumentation point guards event
    *construction* behind ``if sink:`` — with telemetry off, the hot path
    pays one global read and one truthiness check, nothing else.
:class:`JsonlSink`
    Appends one JSON object per event to a file, flushed per event, so a
    crashed run loses at most the line being written.
    :func:`read_jsonl_events` is the matching crash-tolerant reader.
:class:`AggregatingSink`
    In-memory counters (one per event type) and timers/histograms (one per
    :meth:`TelemetryEvent.timings` key).  Thread-safe: heartbeat threads
    emit concurrently with the main loop.

Every instrumentation point reads the process-wide sink at *emit* time
(:func:`default_sink`), so a CLI command installs one sink for everything it
touches with :func:`use_sink` and no constructor takes one.  Heartbeat
threads read the same global, so their events reach it too.  The default
is :data:`NULL_SINK`.

This module is dependency-free on purpose (stdlib only, and nothing from
the rest of the package), so any layer may import it without cycles.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (
    ClassVar,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)


class TelemetryError(ValueError):
    """An events file is unreadable or structurally invalid."""


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TelemetryEvent:
    """Base class for all telemetry events.

    ``name`` is the event type's stable identifier: it keys
    :class:`AggregatingSink` counters and tags :class:`JsonlSink` lines, so
    renaming one is a format change.  :meth:`timings` lists the event's
    duration observations for the timer/histogram side of aggregation.

    Every event can additionally carry a *trace context* — ``trace_id`` /
    ``span_id`` / ``parent_span_id``, a monotonic-clock ``duration_s`` and
    a wall-clock ``ts`` — attached by :meth:`with_trace` (normally via
    :mod:`repro.bench.observe.trace` at the instrumented seam).  The trace
    fields are deliberately *not* dataclass fields: they default to class
    attributes (zero per-instance cost, no constructor churn across twenty
    event types) and only become instance state when a trace is attached,
    so the NullSink zero-overhead contract is untouched.  They appear in
    :meth:`as_dict` (and therefore JSONL lines) only when set.
    """

    name: ClassVar[str] = "event"

    # Trace-context defaults (deliberately *unannotated* class attributes —
    # an annotation would turn them into inherited dataclass fields and
    # break every subclass with required fields).  ``with_trace`` shadows
    # them per instance.
    trace_id = ""
    span_id = ""
    parent_span_id = ""
    duration_s = None
    ts = None

    def with_trace(self, trace_id: str = "", span_id: str = "",
                   parent_span_id: str = "",
                   duration_s: Optional[float] = None,
                   ts: Optional[float] = None) -> "TelemetryEvent":
        """Attach trace context to this (frozen) event; returns ``self``.

        Uses ``object.__setattr__`` because events are frozen dataclasses:
        the trace context is part of event *construction* at the emit site,
        never a later mutation, and dataclass equality/repr (fields only)
        are unaffected.
        """
        if trace_id:
            object.__setattr__(self, "trace_id", trace_id)
            object.__setattr__(self, "span_id", span_id)
            if parent_span_id:
                object.__setattr__(self, "parent_span_id", parent_span_id)
        if duration_s is not None:
            object.__setattr__(self, "duration_s", duration_s)
        if ts is not None:
            object.__setattr__(self, "ts", ts)
        return self

    def timings(self) -> Dict[str, float]:
        """``{timer_name: seconds}`` observations carried by this event."""
        return {}

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"event": self.name}
        for spec in fields(self):
            value = getattr(self, spec.name)
            payload[spec.name] = dict(value) if isinstance(value, Mapping) else value
        if self.ts is not None:
            payload["ts"] = self.ts
        if self.trace_id:
            payload["trace_id"] = self.trace_id
            payload["span_id"] = self.span_id
            if self.parent_span_id:
                payload["parent_span_id"] = self.parent_span_id
        if self.duration_s is not None:
            payload["duration_s"] = self.duration_s
        return payload


@dataclass(frozen=True)
class TrialStarted(TelemetryEvent):
    """A trial spec was handed to an executor (or submitted to a pool)."""

    name: ClassVar[str] = "trial_started"
    task_id: str
    setting_key: str
    trial: int


@dataclass(frozen=True)
class TrialFinished(TelemetryEvent):
    """One trial completed.

    ``seconds`` is real (measured) execution time: the emitting process's
    own measurement, or, for a pool parent, the worker process's measurement
    sent back with the result.  ``None`` means nobody measured it (a
    sentinel 0.0 would corrupt the ``trial_seconds`` timer stats).  ``wall_s`` is the
    trial's *simulated* wall-clock from the session record — deterministic,
    so it agrees across execution paths.  ``phases`` breaks the trial down:
    ``rip`` (artifact load/build) and ``build`` (agent + DMI assembly) are
    real measured seconds, ``plan`` (decompose/verify LLM calls) and ``act``
    (execution calls + input actions) are simulated seconds that sum to
    ``wall_s``.
    """

    name: ClassVar[str] = "trial_finished"
    task_id: str
    setting_key: str
    trial: int
    success: bool
    seconds: Optional[float]
    wall_s: float
    phases: Mapping[str, float] = field(default_factory=dict)

    def timings(self) -> Dict[str, float]:
        out = {"trial_wall_s": self.wall_s}
        if self.seconds is not None:
            out["trial_seconds"] = self.seconds
        for phase, value in self.phases.items():
            out[f"phase_{phase}"] = value
        return out


#: The timers whose observations are simulated seconds, not measured ones:
#: :class:`TrialFinished`'s ``wall_s`` and its ``plan``/``act`` phases.
SIMULATED_TIMERS: frozenset = frozenset(
    {"trial_wall_s", "phase_plan", "phase_act"})


@dataclass(frozen=True)
class CacheHit(TelemetryEvent):
    """An offline model was served from the artifact cache."""

    name: ClassVar[str] = "cache_hit"
    app: str


@dataclass(frozen=True)
class CacheMiss(TelemetryEvent):
    """An offline model had to be built (GUI rip) on a cold cache."""

    name: ClassVar[str] = "cache_miss"
    app: str


@dataclass(frozen=True)
class CacheEvicted(TelemetryEvent):
    """A cache entry was evicted by the ``max_entries`` LRU bound."""

    name: ClassVar[str] = "cache_evicted"
    entry: str


@dataclass(frozen=True)
class CacheGc(TelemetryEvent):
    """One ``ArtifactCache.gc()`` sweep finished (age + size bounds)."""

    name: ClassVar[str] = "cache_gc"
    evicted: int
    reclaimed_bytes: int
    remaining_entries: int
    remaining_bytes: int
    seconds: float

    def timings(self) -> Dict[str, float]:
        return {"cache_gc_s": self.seconds}


@dataclass(frozen=True)
class RipFull(TelemetryEvent):
    """A full GUI rip ran (a cold model build)."""

    name: ClassVar[str] = "rip_full"
    app: str
    #: Control activations (clicks) performed, the rip's dominant cost.
    nodes_visited: int
    nodes: int
    seconds: float

    def timings(self) -> Dict[str, float]:
        return {"rip_full_s": self.seconds}


@dataclass(frozen=True)
class LeaseAcquired(TelemetryEvent):
    """A worker leased one shard manifest off the broker queue."""

    name: ClassVar[str] = "lease_acquired"
    shard_index: int
    worker_id: str


@dataclass(frozen=True)
class LeaseRenewed(TelemetryEvent):
    """A heartbeat extended a still-held lease."""

    name: ClassVar[str] = "lease_renewed"
    shard_index: int
    worker_id: str


@dataclass(frozen=True)
class LeaseLost(TelemetryEvent):
    """A heartbeat discovered its lease was reclaimed by a peer."""

    name: ClassVar[str] = "lease_lost"
    shard_index: int
    worker_id: str


@dataclass(frozen=True)
class ManifestAbandoned(TelemetryEvent):
    """A worker dropped a finished manifest unposted after losing the lease."""

    name: ClassVar[str] = "manifest_abandoned"
    shard_index: int
    worker_id: str


@dataclass(frozen=True)
class ShardPosted(TelemetryEvent):
    """A worker posted one shard's results (``first_post`` = not a duplicate)."""

    name: ClassVar[str] = "shard_posted"
    shard_index: int
    worker_id: str
    results: int
    first_post: bool


@dataclass(frozen=True)
class ShardCollected(TelemetryEvent):
    """The coordinator collected one posted shard off the broker."""

    name: ClassVar[str] = "shard_collected"
    shard_index: int


@dataclass(frozen=True)
class CasRetry(TelemetryEvent):
    """A conditional write lost its race (the caller re-reads and retries)."""

    name: ClassVar[str] = "cas_retry"
    key: str
    op: str


@dataclass(frozen=True)
class StoreRetry(TelemetryEvent):
    """A transient storage/broker failure was absorbed by bounded retry.

    Distinct from :class:`CasRetry` (a conditional write honestly *lost* a
    race): a ``store_retry`` means the operation errored in a way worth
    repeating — an injected chaos fault, a cloud 5xx/throttle, a filesystem
    read that kept losing to concurrent writers — and the caller backed
    off and tried again.  ``attempt`` is 1-based, so the counter's rate
    per op is visible and a give-up (attempt == budget) is identifiable.
    """

    name: ClassVar[str] = "store_retry"
    op: str
    key: str
    attempt: int


@dataclass(frozen=True)
class WorkerIdle(TelemetryEvent):
    """An idle worker backed off before re-polling the queue."""

    name: ClassVar[str] = "worker_idle"
    worker_id: str
    slept_s: float
    streak: int

    def timings(self) -> Dict[str, float]:
        return {"idle_sleep_s": self.slept_s}


@dataclass(frozen=True)
class PlanSubmitted(TelemetryEvent):
    """A named plan was enqueued on a broker (one per ``submit``)."""

    name: ClassVar[str] = "plan_submitted"
    plan: str
    shards: int
    priority: int


#: Every shipped event type's name.  Consumers that want "no events of this
#: kind" to read as an explicit zero (e.g. the runs-diff metric namespace,
#: where a --fail-if gate on ``cache_miss`` must not report the counter
#: "missing" just because a run had no misses) seed their counters from
#: this list.
EVENT_NAMES: tuple = tuple(sorted(event.name for event in (
    TrialStarted, TrialFinished, CacheHit, CacheMiss, CacheEvicted, CacheGc,
    RipFull,
    LeaseAcquired, LeaseRenewed, LeaseLost, ManifestAbandoned, ShardPosted,
    ShardCollected, CasRetry, StoreRetry, WorkerIdle,
    PlanSubmitted)))


def phases_from_result(result, rip_s: Optional[float] = None,
                       build_s: Optional[float] = None) -> Dict[str, float]:
    """The rip/build/plan/act breakdown for one finished trial.

    ``plan`` is the simulated latency of the decompose/verify LLM calls,
    ``act`` is everything else in the session's simulated wall-clock
    (execution calls plus input actions), so ``plan + act == wall_time_s``
    exactly.  ``rip``/``build`` are *measured* seconds and appear only when
    the caller actually measured them (a parent observing worker-process
    completions passes ``None`` — a sentinel 0.0 would corrupt the phase
    timer stats).  ``result`` is duck-typed (anything with ``calls``
    carrying ``purpose``/``latency_s`` and a ``wall_time_s``) to keep this
    module import-free.
    """
    plan = sum(call.latency_s for call in result.calls
               if call.purpose in ("decompose", "verify"))
    phases: Dict[str, float] = {}
    if rip_s is not None:
        phases["rip"] = rip_s
    if build_s is not None:
        phases["build"] = build_s
    phases["plan"] = plan
    phases["act"] = result.wall_time_s - plan
    return phases


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class EventSink:
    """Where events go.  Sinks are truthy; the no-op :class:`NullSink` is
    falsy, so instrumentation points skip event construction entirely when
    telemetry is off (``if sink: sink.emit(...)``)."""

    def emit(self, event: TelemetryEvent) -> None:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return True


class NullSink(EventSink):
    """Discards everything; the zero-overhead default."""

    __slots__ = ()

    def emit(self, event: TelemetryEvent) -> None:
        pass

    def __bool__(self) -> bool:
        return False


#: The canonical no-op sink (sinks are stateless, share one).
NULL_SINK = NullSink()


class TimerStats:
    """Count/total/min/max plus a decade histogram of observed seconds."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: Decade buckets: observation ``v`` lands in ``le_1e{ceil(log10 v)}``
        #: (``zero`` for v <= 0), enough shape for a latency eyeball without
        #: configurable bucket edges.
        self.buckets: Dict[str, int] = {}

    @staticmethod
    def bucket_for(value: float) -> str:
        if value <= 0:
            return "zero"
        return f"le_1e{math.ceil(math.log10(value)):+03d}"

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        label = self.bucket_for(value)
        self.buckets[label] = self.buckets.get(label, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max if self.count else 0.0,
            "buckets": dict(sorted(self.buckets.items())),
        }


class AggregatingSink(EventSink):
    """Counts every event by name and aggregates its timing observations.

    Thread-safe: worker heartbeat threads emit concurrently with the pull
    loop.  Counters key on :attr:`TelemetryEvent.name`; timers key on the
    names from :meth:`TelemetryEvent.timings`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, TimerStats] = {}

    def emit(self, event: TelemetryEvent) -> None:
        with self._lock:
            self.counters[event.name] = self.counters.get(event.name, 0) + 1
            for timer_name, value in event.timings().items():
                timer = self.timers.get(timer_name)
                if timer is None:
                    timer = self.timers[timer_name] = TimerStats()
                timer.observe(value)

    def count(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    def timer(self, name: str) -> Optional[TimerStats]:
        with self._lock:
            return self.timers.get(name)

    def snapshot(self) -> Dict[str, object]:
        """A plain-data copy: ``{"counters": {...}, "timers": {...}}``."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "timers": {name: stats.as_dict()
                           for name, stats in self.timers.items()},
            }


class JsonlSink(EventSink):
    """Appends one JSON line per event; flushed per line for crash safety."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = open(self.path, "a", encoding="utf-8")

    def emit(self, event: TelemetryEvent) -> None:
        line = json.dumps(event.as_dict(), separators=(",", ":"),
                          ensure_ascii=False)
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TeeSink(EventSink):
    """Fans every event out to several sinks (null members are dropped)."""

    def __init__(self, sinks: Sequence[EventSink]) -> None:
        self.sinks = [sink for sink in sinks if sink]

    def emit(self, event: TelemetryEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def __bool__(self) -> bool:
        return bool(self.sinks)


def read_jsonl_events(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Read a :class:`JsonlSink` file, tolerating a truncated last line.

    A crash mid-write leaves at most one partial trailing line, which is
    dropped silently; an unparseable line anywhere *else* means real
    corruption and raises :class:`TelemetryError` naming the path and line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise TelemetryError(f"cannot read events file {path!s}: {error}") \
            from error
    events: List[Dict[str, object]] = []
    lines = text.split("\n")
    # A complete file ends with "\n", so the final split element is "";
    # anything non-empty there is the torn tail of a crashed write.
    for number, line in enumerate(lines[:-1], start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise TelemetryError(
                f"{path!s}: line {number} is not valid JSON "
                f"(only the *last* line may be torn by a crash): {error}"
            ) from error
        if not isinstance(payload, dict):
            raise TelemetryError(f"{path!s}: line {number} is not a JSON "
                                 "object")
        events.append(payload)
    return events


# ----------------------------------------------------------------------
# the process-wide default sink
# ----------------------------------------------------------------------
_default_sink: EventSink = NULL_SINK


def default_sink() -> EventSink:
    """The sink every instrumentation point emits to *right now*."""
    return _default_sink


def set_default_sink(sink: Optional[EventSink]) -> EventSink:
    """Install ``sink`` (``None`` = off) as the default; returns the old one."""
    global _default_sink
    previous = _default_sink
    _default_sink = sink if sink is not None else NULL_SINK
    return previous


@contextmanager
def use_sink(sink: Optional[EventSink]) -> Iterator[EventSink]:
    """Scope ``sink`` as the process default for a ``with`` block."""
    previous = set_default_sink(sink)
    try:
        yield _default_sink
    finally:
        set_default_sink(previous)
