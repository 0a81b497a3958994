"""Cross-fleet metrics aggregation and the OpenMetrics textfile writer.

PR 7 left one :class:`~repro.bench.telemetry.MetricsSnapshotSink` file per
worker and staleness detection "to the operator".  This module closes
both gaps: :class:`FleetAggregator` merges any number of snapshot files
(and, optionally, live JSONL event tails) into one :class:`FleetGauges`
object — per-plan queue depth, lease churn, retry rates, cache hit
ratios, drain rates and per-worker liveness, each worker flagged stale
when its ``written_at`` stamp is older than ``max_age_s`` — and
:func:`write_promfile` exposes the result in the OpenMetrics/Prometheus
text exposition format (atomic rename, stdlib only), the shape every
node-exporter ``textfile`` collector scrapes.

Merge semantics, made explicit because they differ by kind:

* **Queue gauges** (queued/leased/done per plan) are *broker-global*
  observations every worker repeats — merging takes the freshest
  observer's value, never a sum.  When the caller also has a live
  :class:`~repro.bench.transport.BrokerStatus` (``fleet status`` does),
  :meth:`FleetAggregator.add_broker_status` makes it authoritative.
* **Worker counters** (idle polls, lease churn, retries, cache hits) are
  per-worker facts and *sum* across the fleet.
* **Drain rate** needs history, not a point-in-time file: it is computed
  from timestamped ``queue_depth`` events when an events JSONL is folded
  in via :meth:`FleetAggregator.add_events`.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.observe.trace import ObserveError
from repro.bench.telemetry import load_metrics_snapshot, read_jsonl_events

#: Counter names folded fleet-wide from worker snapshots (a fixed, ordered
#: vocabulary so the gauges object and the promfile are stable even when a
#: worker never emitted a given kind).
FLEET_COUNTERS = (
    "trial_finished", "lease_acquired", "lease_renewed", "lease_lost",
    "manifest_abandoned", "shard_posted", "store_retry", "cas_retry",
    "cache_hit", "cache_miss", "worker_idle",
)


@dataclass(frozen=True)
class WorkerSnapshot:
    """One worker's snapshot file, parsed and staleness-checked."""

    path: str
    worker_id: str
    schema_version: int
    #: Wall-clock write stamp.
    written_at: float
    #: Seconds since ``written_at`` at aggregation time.
    age_s: float
    #: True when ``age_s`` exceeded the aggregator's ``max_age_s``.
    stale: bool
    plans: Dict[str, Dict[str, object]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    idle_count: int = 0
    idle_slept_s: float = 0.0
    events: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path, "worker_id": self.worker_id,
            "schema_version": self.schema_version,
            "written_at": self.written_at, "age_s": self.age_s,
            "stale": self.stale, "plans": {name: dict(gauges)
                                           for name, gauges in
                                           self.plans.items()},
            "counters": dict(self.counters),
            "idle": {"count": self.idle_count, "slept_s": self.idle_slept_s},
            "events": self.events,
        }


@dataclass
class FleetGauges:
    """The merged, fleet-wide gauges object ``fleet status`` renders."""

    #: Per-plan ``{queued, leased, done, drained, observed_by, age_s}``.
    plans: Dict[str, Dict[str, object]] = field(default_factory=dict)
    workers: List[WorkerSnapshot] = field(default_factory=list)
    #: Summed per-worker counters, seeded from :data:`FLEET_COUNTERS`.
    counters: Dict[str, int] = field(default_factory=dict)
    idle_count: int = 0
    idle_slept_s: float = 0.0
    #: Per-plan shards/second completion rate from timestamped
    #: ``queue_depth`` samples (only with :meth:`FleetAggregator.add_events`).
    drain_rate: Dict[str, float] = field(default_factory=dict)
    generated_at: float = 0.0

    @property
    def live_workers(self) -> int:
        return sum(1 for worker in self.workers if not worker.stale)

    @property
    def stale_workers(self) -> Tuple[WorkerSnapshot, ...]:
        return tuple(worker for worker in self.workers if worker.stale)

    @property
    def queued(self) -> int:
        return sum(int(gauges.get("queued", 0))
                   for gauges in self.plans.values())

    @property
    def leased(self) -> int:
        return sum(int(gauges.get("leased", 0))
                   for gauges in self.plans.values())

    @property
    def done(self) -> int:
        return sum(int(gauges.get("done", 0))
                   for gauges in self.plans.values())

    @property
    def cache_hit_ratio(self) -> Optional[float]:
        hits = self.counters.get("cache_hit", 0)
        misses = self.counters.get("cache_miss", 0)
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    def as_dict(self) -> Dict[str, object]:
        return {
            "plans": {name: dict(gauges)
                      for name, gauges in sorted(self.plans.items())},
            "workers": [worker.as_dict() for worker in self.workers],
            "live_workers": self.live_workers,
            "counters": dict(self.counters),
            "idle": {"count": self.idle_count, "slept_s": self.idle_slept_s},
            "cache_hit_ratio": self.cache_hit_ratio,
            "drain_rate": dict(self.drain_rate),
            "generated_at": self.generated_at,
        }

    def render(self) -> str:
        """The fleet table ``repro fleet status`` appends below the
        broker's own queue table."""
        lines = []
        if self.workers:
            width = max(12, max(len(w.worker_id) for w in self.workers))
            header = (f"{'worker':<{width}s} {'age s':>8s} {'events':>7s} "
                      f"{'idle s':>8s} state")
            lines.append(header)
            lines.append("-" * len(header))
            for worker in self.workers:
                age = f"{worker.age_s:8.1f}"
                state = "STALE" if worker.stale else "live"
                lines.append(f"{worker.worker_id:<{width}s} {age} "
                             f"{worker.events:>7d} "
                             f"{worker.idle_slept_s:>8.1f} {state}")
        churn = (f"lease churn: {self.counters.get('lease_acquired', 0)} "
                 f"acquired, {self.counters.get('lease_renewed', 0)} "
                 f"renewed, {self.counters.get('lease_lost', 0)} lost")
        retries = (f"retries: {self.counters.get('store_retry', 0)} store, "
                   f"{self.counters.get('cas_retry', 0)} cas")
        lines.append(churn + "; " + retries)
        ratio = self.cache_hit_ratio
        cache = (f"cache: {self.counters.get('cache_hit', 0)} hit(s), "
                 f"{self.counters.get('cache_miss', 0)} miss(es)")
        if ratio is not None:
            cache += f" ({ratio * 100:.0f}% hit ratio)"
        lines.append(cache)
        lines.append(f"worker idle: {self.idle_count} poll(s), "
                     f"{self.idle_slept_s:.1f}s slept")
        drained = sorted(name for name, plan_gauges in self.plans.items()
                         if plan_gauges.get("drained"))
        if drained:
            lines.append(f"drained plans: {', '.join(drained)}")
        for plan, rate in sorted(self.drain_rate.items()):
            lines.append(f"drain rate {plan!r}: {rate:.3f} shard(s)/s")
        return "\n".join(lines)


class FleetAggregator:
    """Merges per-worker snapshots (and event tails) into one gauges view."""

    def __init__(self, max_age_s: Optional[float] = None,
                 clock: Callable[[], float] = time.time) -> None:
        if max_age_s is not None and max_age_s < 0:
            raise ObserveError(f"max_age_s must be >= 0, got {max_age_s}")
        self.max_age_s = max_age_s
        self._clock = clock
        self._workers: List[WorkerSnapshot] = []
        #: Per-plan timestamped (ts, done) samples from queue_depth events.
        self._depth_samples: Dict[str, List[Tuple[float, int]]] = {}
        self._authoritative_plans: Optional[Dict[str, Dict[str, object]]] = None

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------
    def add_snapshot(self, path: Union[str, Path]) -> WorkerSnapshot:
        """Fold one :class:`MetricsSnapshotSink` file in; returns the
        parsed (staleness-flagged) snapshot.  Raises
        :class:`~repro.bench.telemetry.TelemetryError` on bad files,
        unknown schema versions or non-numeric fields."""
        payload = load_metrics_snapshot(path)
        target = Path(path)
        written_at = float(payload["written_at"])
        age_s = self._clock() - written_at
        stale = self.max_age_s is not None and age_s > self.max_age_s
        idle = payload.get("worker_idle", {})
        idle = idle if isinstance(idle, dict) else {}
        plans = payload.get("plans", {})
        plans = plans if isinstance(plans, dict) else {}
        counters = payload.get("counters", {})
        counters = counters if isinstance(counters, dict) else {}
        snapshot = WorkerSnapshot(
            path=str(target),
            worker_id=str(payload.get("worker_id") or target.stem),
            schema_version=int(payload["schema_version"]),
            written_at=written_at,
            age_s=age_s, stale=stale,
            plans={str(name): dict(gauges) for name, gauges in plans.items()
                   if isinstance(gauges, dict)},
            counters={str(name): int(count)
                      for name, count in counters.items()},
            idle_count=int(idle.get("count", 0)),
            idle_slept_s=float(idle.get("slept_s", 0.0)),
            events=int(payload.get("events", 0)))
        self._workers.append(snapshot)
        return snapshot

    def add_events(self, path: Union[str, Path]) -> int:
        """Fold a live JSONL tail in for drain-rate windows; returns the
        number of timestamped ``queue_depth`` samples found."""
        samples = 0
        for event in read_jsonl_events(path):
            if event.get("event") != "queue_depth":
                continue
            ts = event.get("ts")
            if ts is None:
                continue
            plan = str(event.get("plan", ""))
            self._depth_samples.setdefault(plan, []).append(
                (float(ts), int(event.get("done", 0))))
            samples += 1
        return samples

    def add_broker_status(self, status) -> None:
        """Make a live broker's own counters authoritative for the
        per-plan queue gauges (worker snapshots then only contribute
        liveness and counters).  ``status`` is duck-typed
        (:class:`~repro.bench.transport.BrokerStatus`)."""
        self._authoritative_plans = {
            plan.name: {"queued": plan.queued, "leased": plan.leased,
                        "done": plan.done, "drained": plan.drained,
                        "observed_by": "broker", "age_s": 0.0}
            for plan in status.plans}

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def aggregate(self) -> FleetGauges:
        gauges = FleetGauges(generated_at=self._clock())
        gauges.workers = list(self._workers)
        gauges.counters = {name: 0 for name in FLEET_COUNTERS}
        for worker in self._workers:
            for name, count in worker.counters.items():
                gauges.counters[name] = gauges.counters.get(name, 0) + count
            gauges.idle_count += worker.idle_count
            gauges.idle_slept_s += worker.idle_slept_s
        if self._authoritative_plans is not None:
            gauges.plans = {name: dict(plan) for name, plan
                            in self._authoritative_plans.items()}
        else:
            # Freshest observer wins per plan: queue gauges are global
            # facts each worker observed at a different moment, so the
            # youngest snapshot mentioning the plan is the best estimate.
            best_age: Dict[str, float] = {}
            for worker in sorted(self._workers, key=lambda w: w.age_s):
                for name, plan in worker.plans.items():
                    if name not in gauges.plans \
                            or worker.age_s < best_age[name]:
                        merged = {
                            "queued": int(plan.get("queued", 0)),
                            "leased": int(plan.get("leased", 0)),
                            "done": int(plan.get("done", 0)),
                            "drained": bool(plan.get("drained", False)),
                            "observed_by": worker.worker_id,
                            "age_s": worker.age_s,
                        }
                        gauges.plans[name] = merged
                        best_age[name] = worker.age_s
        for plan, samples in self._depth_samples.items():
            samples = sorted(samples)
            if len(samples) < 2:
                continue
            (first_ts, first_done), (last_ts, last_done) = \
                samples[0], samples[-1]
            window = last_ts - first_ts
            if window > 0 and last_done > first_done:
                gauges.drain_rate[plan] = (last_done - first_done) / window
        return gauges


# ----------------------------------------------------------------------
# OpenMetrics / Prometheus textfile exposition (stdlib only)
# ----------------------------------------------------------------------
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}

#: ``metric_name{label="value",...} value`` — the subset of the
#: OpenMetrics text format the writer emits and the parser accepts.
_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>.*)\})?'
    r'\s+(?P<value>[^\s]+)$')
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"')


def _escape_label(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(char, char) for char in value)


def _sample(name: str, labels: Dict[str, str], value: object) -> str:
    if labels:
        rendered = ",".join(f'{key}="{_escape_label(str(val))}"'
                            for key, val in sorted(labels.items()))
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


def render_openmetrics(gauges: FleetGauges, prefix: str = "repro") -> str:
    """The fleet gauges in OpenMetrics text exposition format.

    Gauge metrics for queue depth and liveness, counter metrics for the
    monotonic per-event totals; ends with the ``# EOF`` marker the
    OpenMetrics spec requires.  No dependencies: the format is line-based
    and this emits the plain subset every Prometheus scraper accepts.
    """
    lines: List[str] = []

    def head(name: str, kind: str, help_text: str) -> str:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        return name

    name = head(f"{prefix}_queue_depth", "gauge",
                "Shards per plan by queue state.")
    for plan, plan_gauges in sorted(gauges.plans.items()):
        for state in ("queued", "leased", "done"):
            lines.append(_sample(name, {"plan": plan, "state": state},
                                 int(plan_gauges.get(state, 0))))
    name = head(f"{prefix}_plan_drained", "gauge",
                "1 when the plan has no queued or leased shards left.")
    for plan, plan_gauges in sorted(gauges.plans.items()):
        lines.append(_sample(name, {"plan": plan},
                             1 if plan_gauges.get("drained") else 0))
    name = head(f"{prefix}_workers", "gauge",
                "Workers by snapshot liveness.")
    lines.append(_sample(name, {"state": "live"}, gauges.live_workers))
    lines.append(_sample(name, {"state": "stale"},
                         len(gauges.stale_workers)))
    name = head(f"{prefix}_worker_age_seconds", "gauge",
                "Age of each worker's snapshot at aggregation time.")
    for worker in gauges.workers:
        lines.append(_sample(name, {"worker": worker.worker_id},
                             f"{worker.age_s:.3f}"))
    name = head(f"{prefix}_events_total", "counter",
                "Telemetry events by type, summed across workers.")
    for counter, count in sorted(gauges.counters.items()):
        lines.append(_sample(name, {"kind": counter}, count))
    name = head(f"{prefix}_idle_seconds_total", "counter",
                "Total seconds workers spent in idle backoff.")
    lines.append(_sample(name, {}, f"{gauges.idle_slept_s:.3f}"))
    ratio = gauges.cache_hit_ratio
    if ratio is not None:
        name = head(f"{prefix}_cache_hit_ratio", "gauge",
                    "Fleet-wide artifact cache hit ratio.")
        lines.append(_sample(name, {}, f"{ratio:.6f}"))
    name = head(f"{prefix}_drain_rate", "gauge",
                "Shards completed per second, per plan (windowed).")
    for plan, rate in sorted(gauges.drain_rate.items()):
        lines.append(_sample(name, {"plan": plan}, f"{rate:.6f}"))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MetricSample:
    """One parsed exposition line: name + labels + float value."""

    name: str
    labels: Dict[str, str]
    value: float


def parse_openmetrics(text: str) -> List[MetricSample]:
    """Parse the exposition subset :func:`render_openmetrics` writes.

    Used by the round-trip checks in tests and CI: a promfile that fails
    to parse would be silently dropped by a real node-exporter textfile
    collector, which is exactly the failure mode this guards against.
    Raises :class:`ObserveError` naming the offending line.
    """
    samples: List[MetricSample] = []
    saw_eof = False
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if saw_eof:
            raise ObserveError(f"line {number}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            if not (line.startswith("# HELP ")
                    or line.startswith("# TYPE ")):
                raise ObserveError(
                    f"line {number}: unknown comment {line!r} (expected "
                    "# HELP, # TYPE or # EOF)")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ObserveError(
                f"line {number}: not a valid metric sample: {line!r}")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            matched_len = sum(
                len(part.group(0)) for part in _LABEL_RE.finditer(raw))
            pairs = list(_LABEL_RE.finditer(raw))
            # Reject label blocks with unparsed residue (beyond commas).
            residue = _LABEL_RE.sub("", raw).replace(",", "").strip()
            if residue or (not pairs and raw.strip()):
                raise ObserveError(
                    f"line {number}: malformed label block {{{raw}}}")
            del matched_len
            for part in pairs:
                labels[part.group("key")] = re.sub(
                    r'\\(.)', lambda m: {"n": "\n"}.get(m.group(1),
                                                        m.group(1)),
                    part.group("value"))
        try:
            value = float(match.group("value"))
        except ValueError as error:
            raise ObserveError(
                f"line {number}: non-numeric value "
                f"{match.group('value')!r}") from error
        samples.append(MetricSample(name=match.group("name"),
                                    labels=labels, value=value))
    if not saw_eof:
        raise ObserveError("missing # EOF terminator")
    return samples


def write_promfile(gauges: FleetGauges, directory: Union[str, Path],
                   name: str = "repro_fleet.prom",
                   prefix: str = "repro") -> Path:
    """Atomically write the OpenMetrics textfile into ``directory``.

    Temp file + rename, same as every other writer in this codebase, so a
    node-exporter textfile collector scraping mid-write never sees a torn
    exposition.
    """
    target = Path(directory) / name
    target.parent.mkdir(parents=True, exist_ok=True)
    rendered = render_openmetrics(gauges, prefix=prefix)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    tmp.write_text(rendered, encoding="utf-8")
    tmp.replace(target)
    return target
