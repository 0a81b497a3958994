"""Remote shard transport: a multi-tenant broker/worker queue over manifests.

PR 2's shard pipeline (:mod:`repro.bench.shard`) is file-bound: an operator
hand-carries manifest JSONs to machines and collects results back.  This
module turns it into a deploy-anywhere work queue with three roles:

coordinator
    :meth:`ObjectStoreBroker.submit` enqueues every manifest of a
    :class:`~repro.bench.shard.ShardPlan` under a *plan name* (namespace);
    one broker holds any number of named plans concurrently.
    :meth:`ObjectStoreBroker.status` reports per-plan and aggregate
    queued/leased/done counts (:class:`BrokerStatus` over
    :class:`PlanStatus` rows) while workers run;
    :meth:`ObjectStoreBroker.collect` gathers one named plan's posted
    :class:`~repro.bench.shard.ShardResults`, which feed straight into
    :func:`~repro.bench.shard.merge_shard_results` so all of PR 2's
    plan-identity validation applies unchanged.  Single-plan callers that
    never pass a name land in the reserved ``"default"`` namespace.
worker
    :class:`ShardWorker` is a pull loop: lease a manifest (from whichever
    plan fair-share picks), run it through a
    :class:`~repro.bench.shard.ManifestExecutor` (inheriting ``jobs`` and
    the :class:`~repro.dmi.cache.ArtifactCache`), post the results, repeat.
    It exits when every plan drains — unless running as a persistent
    *daemon* (``daemon=True`` / ``repro shard work --daemon``), in which
    case it survives drain, keeps idle-polling with backoff, and picks up
    newly submitted plans without a restart; ``stop()``/SIGTERM or
    ``max_idle_s`` shut it down cleanly.
broker
    :class:`ObjectStoreBroker` implements the queue over any
    :class:`~repro.bench.store.ObjectStore` (S3-style conditional writes;
    the plan name is folded into the ``manifest/``, ``lease/`` and
    ``result/`` key layout, with one index object per plan under
    ``plans/``).  Over a :class:`~repro.bench.store.FileSystemObjectStore`
    it is a shared (NFS-style) directory queue; over a cloud store it is
    deployable unchanged.  Any number of workers on any number of machines
    race for leases by compare-and-swap without locks; leases expire after
    ``lease_ttl`` seconds and are reclaimed, so a crashed worker's manifest
    is re-run by a peer.

Leasing is *fair-share with priority* across live plans: each broker
handle round-robins over the plans that currently have leasable work
(least-served first, then higher ``priority``, then deeper queue, then
name), so one huge grid cannot starve a small one — the conformance suite
(``tests/broker_contract.py``) asserts interleaving and namespace
isolation over every store.

Leases are kept alive by *heartbeats*: :meth:`ObjectStoreBroker.renew`
extends a lease the caller still holds (and reports loss if it was
reclaimed), and :class:`ShardWorker` runs a background
:class:`LeaseHeartbeat` thread per manifest (interval ``lease_ttl / 3`` by
default), so a manifest that takes
longer than ``lease_ttl`` finishes without being reclaimed — ``lease_ttl``
can stay sized for crash *detection* instead of worst-case runtime.  A
worker whose heartbeat discovers the lease was reclaimed abandons the
manifest without posting; the peer that reclaimed it reproduces the same
bytes.

Because every trial is deterministically seeded, re-running a reclaimed
manifest (or double-posting one) reproduces the same
:class:`~repro.agent.session.SessionResult` payloads, which is what makes
first-write-wins result posting and lease reclaim safe: the merged output
stays bit-identical to a serial run no matter how work was dealt out (the
equivalence harness in ``tests/equivalence.py`` asserts exactly this, per
plan, including two plans sharing one broker).
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import socket
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.shard import (
    MANIFEST_FORMAT_VERSION,
    PLAN_IDENTITY_LABELS,
    ManifestExecutor,
    ShardError,
    ShardManifest,
    ShardPlan,
    ShardResults,
    _check_header,
    _parse_json_bytes,
    _require,
    _require_int,
    _require_str,
    _require_str_tuple,
    check_plan_identity,
    shard_file_name,
)
from repro.bench.engine import ProgressCallback
from repro.bench.observe import trace as tracectx
from repro.bench.store import ObjectStore, RetryPolicy, call_with_retries
from repro.bench import telemetry
from repro.bench.telemetry import (
    EventSink,
    LeaseAcquired,
    LeaseLost,
    LeaseRenewed,
    ManifestAbandoned,
    PlanDrained,
    PlanSubmitted,
    QueueDepth,
    ShardCollected,
    ShardPosted,
    WorkerIdle,
)

#: Seconds a lease stays valid before any worker may reclaim the manifest.
#: Generous by default: reclaim exists for crashed workers, not slow ones
#: (and heartbeats keep live leases fresh regardless of manifest runtime).
DEFAULT_LEASE_TTL = 900.0

#: Fraction of ``lease_ttl`` between heartbeat renewals when no explicit
#: interval is configured: three chances to renew before the lease expires.
DEFAULT_HEARTBEAT_FRACTION = 3.0

#: First idle-poll sleep of a :class:`ShardWorker`'s exponential backoff;
#: doubles per consecutive empty poll, so a worker that just lost a lease
#: race re-checks quickly but an idle fleet quiets down fast.
IDLE_BACKOFF_BASE = 0.05

#: Hard ceiling on one idle-poll sleep regardless of how high ``--poll``
#: is set — crashed-peer reclaim latency stays bounded.
IDLE_BACKOFF_CAP = 30.0

#: The namespace single-plan callers land in when they never pass a name.
DEFAULT_PLAN = "default"

_PLAN_KIND = "repro-broker-plan"

_PLAN_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: Typed loaders for the plan-header fields, keyed by identity label; any
#: label without an entry falls back to the untyped ``_require``, so a new
#: ``plan_identity()`` field flows through submit/parse without edits here.
_IDENTITY_PARSERS: Dict[str, Callable] = {
    "shard_count": _require_int,
    "seed": _require_int,
    "trials": _require_int,
    "fingerprint": _require_str,
    "setting_keys": _require_str_tuple,
    "task_ids": _require_str_tuple,
}

Clock = Callable[[], float]


def validate_plan_name(name: str) -> str:
    """A plan name safe to embed in directory paths and object keys.

    Same character policy as worker-id sanitizing (letters, digits,
    ``_``, ``.``, ``-``) but *rejecting* instead of rewriting — a plan
    name is an identity the coordinator and collectors must agree on, so
    silently normalizing it would route results to a surprise namespace.
    """
    if (not isinstance(name, str) or not name or name == "."
            or ".." in name or _PLAN_NAME_RE.fullmatch(name) is None):
        raise ShardError(
            f"invalid plan name {name!r}: plan names must be non-empty, "
            "use only letters, digits, '_', '.' and '-' (no '/'), and "
            "never contain '..'")
    return name


def _check_priority(priority: int) -> int:
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ShardError(f"plan priority must be an integer, "
                         f"got {priority!r}")
    return priority


def _check_submittable(plan: ShardPlan) -> ShardPlan:
    """Reject degenerate plans at the queue boundary.

    ``plan_shards`` never emits empty shards, but manifests are plain data
    and can be rebuilt by hand (or by over-sharding a ramping generated
    grid); an empty-spec manifest would enqueue a work unit that executes
    nothing yet still participates in plan identity and merge accounting.
    Rejecting here keeps the submit → lease → post → collect pipeline free
    of no-op shards.
    """
    if not getattr(plan, "manifests", ()):
        raise ShardError("cannot submit an empty plan (no manifests); "
                         "plan a non-empty grid first")
    for manifest in plan.manifests:
        if not manifest.specs:
            raise ShardError(
                f"cannot submit shard {manifest.shard_index} of "
                f"{manifest.shard_count}: it carries no trial specs "
                "(every submitted shard must hold at least one spec; "
                "re-plan with fewer shards)")
    return plan


def _plan_header_payload(plan: ShardPlan, name: str,
                         priority: int) -> Dict[str, object]:
    """The submitted plan's identity header (the ``plans/<name>`` object)."""
    header: Dict[str, object] = {
        "kind": _PLAN_KIND,
        "format_version": MANIFEST_FORMAT_VERSION,
        "plan": name,
        "priority": priority,
    }
    # Derived from the identity tuple itself so the header can never drift
    # from plan_identity()'s field set.
    for label, value in zip(PLAN_IDENTITY_LABELS,
                            plan.manifests[0].plan_identity()):
        header[label] = list(value) if isinstance(value, tuple) else value
    return header


def _parse_plan_header(payload: Dict[str, object],
                       source: str) -> Tuple[object, ...]:
    """Validate a plan header payload into a ``plan_identity()`` tuple."""
    _check_header(payload, _PLAN_KIND, source)
    return tuple(_IDENTITY_PARSERS.get(label, _require)(payload, label,
                                                        source)
                 for label in PLAN_IDENTITY_LABELS)


def _check_posted_results(reference: Tuple[object, ...],
                          results: ShardResults, source: str) -> None:
    """Posted results must carry a manifest of this plan, in index range."""
    manifest = results.manifest
    check_plan_identity(reference, manifest,
                        source=f"{source} for shard {manifest.shard_index}")
    if not 0 <= manifest.shard_index < manifest.shard_count:
        raise ShardError(f"{source} carry shard index "
                         f"{manifest.shard_index}, out of range for a "
                         f"{manifest.shard_count}-shard plan")


def _emit_collected(collected: List[ShardResults], plan: str) -> None:
    """One :class:`~repro.bench.telemetry.ShardCollected` per gathered shard,
    each stamped as a ``collect`` span in the shard's trace (parented to
    the plan's submit span, so a trial timeline ends with its collect)."""
    sink = telemetry.default_sink()
    if sink:
        for shard in collected:
            ctx = tracectx.shard_context(plan, shard.manifest, "collect")
            sink.emit(ctx.attach(
                ShardCollected(shard_index=shard.manifest.shard_index)))


@dataclass(frozen=True)
class PlanStatus:
    """One named plan's queue counters (one snapshot, not a live view)."""

    name: str
    priority: int
    queued: int
    leased: int
    done: int
    shard_count: int

    @property
    def complete(self) -> bool:
        return self.done >= self.shard_count

    @property
    def drained(self) -> bool:
        """No work left to lease *or* in flight (done or abandoned)."""
        return self.queued == 0 and self.leased == 0

    def render_line(self) -> str:
        return (f"{self.done}/{self.shard_count} done "
                f"({self.queued} queued, {self.leased} leased)")

    def as_dict(self) -> Dict[str, object]:
        return {"priority": self.priority, "queued": self.queued,
                "leased": self.leased, "done": self.done,
                "shard_count": self.shard_count, "complete": self.complete}


@dataclass(frozen=True)
class BrokerStatus:
    """Coordinator-side queue counters: per-plan rows plus aggregates.

    The aggregate properties (``queued``/``leased``/``done``/
    ``shard_count``) sum over every plan the broker holds, so drain checks
    ("is there anything left to do *anywhere*?") read the same as they did
    when a broker held exactly one plan.
    """

    plans: Tuple[PlanStatus, ...] = ()

    @property
    def queued(self) -> int:
        return sum(plan.queued for plan in self.plans)

    @property
    def leased(self) -> int:
        return sum(plan.leased for plan in self.plans)

    @property
    def done(self) -> int:
        return sum(plan.done for plan in self.plans)

    @property
    def shard_count(self) -> int:
        return sum(plan.shard_count for plan in self.plans)

    @property
    def complete(self) -> bool:
        return self.done >= self.shard_count

    @property
    def drained(self) -> bool:
        """No work left to lease *or* in flight (done or abandoned)."""
        return self.queued == 0 and self.leased == 0

    def plan(self, name: str) -> Optional[PlanStatus]:
        for plan in self.plans:
            if plan.name == name:
                return plan
        return None

    def render_line(self) -> str:
        """The one-line aggregate (worker/collect progress messages)."""
        return (f"{self.done}/{self.shard_count} done "
                f"({self.queued} queued, {self.leased} leased)")

    def render(self) -> str:
        """The per-plan table ``repro shard status`` / ``fleet status`` print."""
        if not self.plans:
            return "no plans submitted"
        width = max(24, max(len(plan.name) for plan in self.plans))
        header = (f"{'plan':<{width}s} {'pri':>4s} {'queued':>7s} "
                  f"{'leased':>7s} {'done':>6s} {'shards':>7s}")
        lines = [header, "-" * len(header)]
        for plan in self.plans:
            lines.append(f"{plan.name:<{width}s} {plan.priority:>4d} "
                         f"{plan.queued:>7d} {plan.leased:>7d} "
                         f"{plan.done:>6d} {plan.shard_count:>7d}")
        if len(self.plans) > 1:
            lines.append(f"{'(all plans)':<{width}s} {'-':>4s} "
                         f"{self.queued:>7d} {self.leased:>7d} "
                         f"{self.done:>6d} {self.shard_count:>7d}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "plans": {plan.name: plan.as_dict() for plan in self.plans},
            "aggregate": {"queued": self.queued, "leased": self.leased,
                          "done": self.done, "shard_count": self.shard_count,
                          "complete": self.complete},
        }


@dataclass(frozen=True)
class ShardLease:
    """One leased manifest: the work order plus the lease bookkeeping.

    ``plan`` names the namespace the manifest came from (posts route back
    to it); ``token`` is ``<shard file>:<grant>``; ``deadline`` is in the
    broker clock's units — after it passes any worker may reclaim the
    manifest.
    """

    manifest: ShardManifest
    worker_id: str
    deadline: float
    token: str
    plan: str = DEFAULT_PLAN


class ObjectStoreBroker:
    """The shard queue over an :class:`~repro.bench.store.ObjectStore`.

    One broker holds any number of *named* plans (namespaces); submitting
    without a name uses the reserved ``"default"`` namespace, so
    single-plan callers read exactly as they did when a broker held one
    plan.  Results never cross namespaces: :meth:`collect` takes a name
    and returns only that plan's shards.  Posting a shard that is already
    done is an idempotent no-op (results are deterministic, so the copies
    are interchangeable), which makes both duplicate posts and
    post-reclaim stragglers harmless.

    Keys under the store (the plan name is folded into every prefix)::

        plans/<name>                the plan's identity header + priority
                                    (``put_if_absent`` once by submit);
                                    listing ``plans/`` is the plan index
        manifest/<name>/<shard>     one immutable manifest JSON per shard
        lease/<name>/<shard>        one small mutable lease object per
                                    shard; every state transition is a
                                    compare-and-swap
        result/<name>/<shard>       posted ShardResults
                                    (``put_if_absent``: first write wins)

    A lease object is ``{"state": "queued"}``, ``{"state": "leased",
    "worker": …, "deadline_ms": …, "grant": …}`` or ``{"state": "done",
    …}``.  Leasing (including reclaiming an expired lease) is one CAS from
    the observed etag, so any number of workers race safely: exactly one
    swap wins, the losers observe a changed etag and move on.  ``grant``
    increments on every (re)lease and is embedded in the lease token, so a
    stale holder's :meth:`renew` can never pass for the current holder's.

    The set of ``result/<name>/`` keys is authoritative for doneness (the
    post-time CAS that flips the lease object to ``done`` is best-effort).
    Lease deadlines are wall-clock timestamps compared across machines, so
    keep worker clocks NTP-synced or size ``lease_ttl`` above the worst
    expected skew — or state the worst skew as ``skew_allowance`` and
    expiry checks grant that much extra life to every persisted deadline
    (never stealing a live peer's lease at the cost of equally delayed
    crash recovery).

    Every store call is wrapped in bounded retry-with-backoff (``retry``, a
    :class:`~repro.bench.store.RetryPolicy`): a
    :class:`~repro.bench.store.TransientStoreError` — a cloud 5xx, a
    throttle, an injected chaos fault — is absorbed up to the budget
    (each absorbed attempt emits a ``store_retry`` telemetry event) and
    only then surfaces as a labeled
    :class:`~repro.bench.store.RetryBudgetExceeded`.  Semantic failures
    (lost CAS races, missing objects) are *results*, not errors, and are
    never retried here.
    """

    PLANS_PREFIX = "plans/"
    MANIFEST_PREFIX = "manifest/"
    LEASE_PREFIX = "lease/"
    RESULT_PREFIX = "result/"
    _LEASE_STATES = ("queued", "leased", "done")

    def __init__(self, store: ObjectStore,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 clock: Clock = time.time,
                 retry: Optional[RetryPolicy] = None,
                 skew_allowance: float = 0.0) -> None:
        if lease_ttl <= 0:
            raise ShardError(f"lease_ttl must be > 0, got {lease_ttl}")
        if not math.isfinite(skew_allowance) or skew_allowance < 0:
            raise ShardError(f"skew_allowance must be a finite number >= 0, "
                             f"got {skew_allowance}")
        self.store = store
        self.lease_ttl = lease_ttl
        self.skew_allowance = skew_allowance
        self.retry = retry if retry is not None else RetryPolicy()
        self._clock = clock
        self._skew_ms = int(skew_allowance * 1000)
        #: Leases granted per plan by this handle (fair-share rotation).
        self._served: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # store plumbing
    # ------------------------------------------------------------------
    def _source(self, key: str) -> str:
        return f"{self.store.describe()}: object {key!r}"

    def _store_call(self, op: str, key: str, fn):
        return call_with_retries(fn, op=op, key=key, policy=self.retry)

    def _get_json(self, key: str) -> Optional[Tuple[Dict[str, object], str]]:
        stored = self._store_call("get", key, lambda: self.store.get(key))
        if stored is None:
            return None
        data, etag = stored
        return _parse_json_bytes(data, self._source(key)), etag

    @staticmethod
    def _dump(payload: Dict[str, object]) -> bytes:
        return json.dumps(payload, indent=1).encode("utf-8")

    def _plan_key(self, name: str) -> str:
        return self.PLANS_PREFIX + name

    def _manifest_prefix(self, name: str) -> str:
        return f"{self.MANIFEST_PREFIX}{name}/"

    def _lease_prefix(self, name: str) -> str:
        return f"{self.LEASE_PREFIX}{name}/"

    def _result_prefix(self, name: str) -> str:
        return f"{self.RESULT_PREFIX}{name}/"

    def plan_names(self) -> Tuple[str, ...]:
        return tuple(sorted(
            key[len(self.PLANS_PREFIX):]
            for key in self._list(self.PLANS_PREFIX)))

    def _list(self, prefix: str) -> List[str]:
        return self._store_call("list_prefix", prefix,
                                lambda: self.store.list_prefix(prefix))

    def _put_if_absent(self, key: str, data: bytes) -> bool:
        # Retrying a conditional put is safe-by-design here: both writes
        # are content-deterministic, so if an earlier attempt actually
        # landed before its error surfaced, the retry's False reads the
        # same as losing to a peer who wrote identical bytes.
        return self._store_call(
            "put_if_absent", key,
            lambda: self.store.put_if_absent(key, data))

    def _put_if_match(self, key: str, data: bytes, etag: str) -> bool:
        return self._store_call(
            "put_if_match", key,
            lambda: self.store.put_if_match(key, data, etag))

    def _header(self, name: str) -> Dict[str, object]:
        found = self._get_json(self._plan_key(name))
        if found is None:
            known = ", ".join(self.plan_names()) or "none"
            raise ShardError(
                f"{self.store.describe()}: no plan has been submitted to "
                f"this object store under the name {name!r} (run 'repro "
                f"shard submit' first; known plans: {known})")
        return found[0]

    def _identity(self, name: str) -> Tuple[object, ...]:
        return _parse_plan_header(self._header(name),
                                  self._source(self._plan_key(name)))

    def _parse_lease_object(self, key: str,
                            payload: Dict[str, object]) -> str:
        state = _require_str(payload, "state", self._source(key))
        if state not in self._LEASE_STATES:
            raise ShardError(f"{self._source(key)}: field 'state' is "
                             f"{state!r}; expected one of "
                             f"{', '.join(map(repr, self._LEASE_STATES))}")
        return state

    def _load_manifest(self, name: str, file_name: str) -> ShardManifest:
        key = self._manifest_prefix(name) + file_name
        found = self._get_json(key)
        if found is None:
            raise ShardError(f"{self._source(key)}: missing manifest object "
                             "for an enqueued shard")
        return ShardManifest.from_dict(found[0], source=self._source(key))

    def _done_names(self, name: str) -> set:
        prefix = self._result_prefix(name)
        return {key[len(prefix):] for key in self._list(prefix)}

    def _pending_lease_keys(self, name: str,
                            shard_count: int) -> List[str]:
        """The plan's lease keys whose shard has no posted result yet.

        Lease keys are named after their shard (as :meth:`submit` wrote
        them), so only the result prefix is listed; a lease object that
        was never written reads as absent and is skipped by the claim loop.
        """
        done = self._done_names(name)
        prefix = self._lease_prefix(name)
        file_names = (shard_file_name(index, shard_count)
                      for index in range(shard_count))
        return [prefix + file_name for file_name in file_names
                if file_name not in done]

    # ------------------------------------------------------------------
    # fair-share rotation
    # ------------------------------------------------------------------
    def _fair_share_order(
            self, candidates: Sequence[Tuple[str, int, int]]) -> List[str]:
        """Order plans for the next lease attempt.

        ``candidates`` is ``(name, priority, queued_depth)`` for every
        plan with leasable work.  Least-served (by this handle) goes
        first — plain round-robin, so a 1000-shard plan and a 3-shard plan
        alternate leases instead of the small one waiting out the big one —
        with higher ``priority``, deeper queue, then name breaking ties.
        Served counts are per broker handle, not shared state: every
        worker process rotates fairly on its own, which yields fleet-level
        fairness without cross-worker coordination.
        """
        ordered = sorted(
            candidates,
            key=lambda c: (self._served.get(c[0], 0), -c[1], -c[2], c[0]))
        return [name for name, _priority, _depth in ordered]

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _emit_plan_submitted(self, name: str, plan: ShardPlan,
                             priority: int) -> None:
        sink = telemetry.default_sink()
        if sink:
            ctx = tracectx.plan_context(name, plan.manifests[0])
            sink.emit(ctx.attach(PlanSubmitted(
                plan=name, shards=plan.shard_count, priority=priority)))

    # ------------------------------------------------------------------
    # the queue verbs
    # ------------------------------------------------------------------
    def submit(self, plan: ShardPlan, name: str = DEFAULT_PLAN,
               priority: int = 0) -> None:
        """Enqueue every manifest of ``plan`` under ``name``.

        One plan per name: resubmitting an occupied name raises.  Higher
        ``priority`` plans win lease-order ties against equally-served
        peers.
        """
        name = validate_plan_name(name)
        _check_priority(priority)
        _check_submittable(plan)
        header = self._dump(_plan_header_payload(plan, name, priority))
        # Header first (exactly one submitter can create it): a plan object
        # with manifests still appearing reads as a plan being enqueued.
        if not self._put_if_absent(self._plan_key(name), header):
            raise ShardError(
                f"{self.store.describe()}: object store already holds a "
                f"plan named {name!r} (collect it or pick another plan "
                "name)")
        for manifest in plan.manifests:
            file_name = plan.manifest_name(manifest.shard_index)
            self._put_if_absent(self._manifest_prefix(name) + file_name,
                                self._dump(manifest.as_dict()))
            self._put_if_absent(self._lease_prefix(name) + file_name,
                                self._dump({"state": "queued"}))
        self._emit_plan_submitted(name, plan, priority)

    def lease(self, worker_id: str) -> Optional[ShardLease]:
        """Atomically take one queued manifest, or ``None`` if none is free.

        Plans are tried in fair-share order (round-robin per handle,
        ``priority`` then queue depth as tiebreaks) and the returned lease
        is tagged with its plan name.  Expired leases are reclaimed too,
        so a crashed worker's manifest becomes leasable again after
        ``lease_ttl`` seconds.  A broker holding no plans at all is simply
        empty (``None``), so daemon workers may start before the first
        submit.
        """
        pending: Dict[str, List[str]] = {}
        candidates = []
        for name in self.plan_names():
            header = self._header(name)
            source = self._source(self._plan_key(name))
            # Lease objects whose shard has no result yet (queued work plus
            # in-flight/expired leases): both the queue-depth tiebreak and
            # the keys the claim loop scans.
            keys = self._pending_lease_keys(
                name, _require_int(header, "shard_count", source))
            if not keys:
                continue
            pending[name] = keys
            priority = _require_int(header, "priority", source)
            candidates.append((name, priority, len(keys)))
        for name in self._fair_share_order(candidates):
            lease = self._lease_from_plan(name, pending[name], worker_id)
            if lease is not None:
                self._served[name] = self._served.get(name, 0) + 1
                return lease
        return None

    def _lease_from_plan(self, name: str, keys: List[str],
                         worker_id: str) -> Optional[ShardLease]:
        now_ms = int(self._clock() * 1000)
        prefix = self._lease_prefix(name)
        for key in keys:
            file_name = key[len(prefix):]
            found = self._get_json(key)
            if found is None:
                continue  # deleted under us; nothing to take
            payload, etag = found
            state = self._parse_lease_object(key, payload)
            if state == "done":
                continue
            if state == "leased":
                deadline_ms = _require_int(payload, "deadline_ms",
                                           self._source(key))
                if now_ms < deadline_ms + self._skew_ms:
                    continue  # a live peer holds it (within skew grace)
                # else: expired — reclaim by CAS'ing it straight to ours.
            grant = (_require_int(payload, "grant", self._source(key)) + 1
                     if "grant" in payload else 1)
            deadline = self._clock() + self.lease_ttl
            claim = {"state": "leased", "worker": worker_id,
                     "deadline_ms": int(deadline * 1000), "grant": grant}
            if not self._put_if_match(key, self._dump(claim), etag):
                continue  # another worker swapped first; next shard
            return ShardLease(manifest=self._load_manifest(name, file_name),
                              worker_id=worker_id, deadline=deadline,
                              token=f"{file_name}:{grant}", plan=name)
        return None

    def renew(self, lease: ShardLease) -> Optional[ShardLease]:
        """Extend a still-held lease by ``lease_ttl`` from now.

        Returns the refreshed :class:`ShardLease` (post with *that* handle
        from then on), or ``None`` if the lease is no longer held — it
        expired and was reclaimed, or its shard is already done.  A ``None``
        tells the worker to abandon the manifest: a peer owns it now and
        will reproduce the same bytes.
        """
        # No _identity() re-read here: a ShardLease proves the plan was
        # already validated, and renew is the heartbeat hot path — one CAS
        # per tick, not an extra plan GET per tick.
        file_name, _, grant_text = lease.token.rpartition(":")
        key = self._lease_prefix(lease.plan) + file_name
        found = self._get_json(key)
        if found is None:
            return None
        payload, etag = found
        state = self._parse_lease_object(key, payload)
        if state != "leased" or payload.get("grant") != int(grant_text):
            return None  # reclaimed (new grant) or already done
        deadline = self._clock() + self.lease_ttl
        renewed = dict(payload, deadline_ms=int(deadline * 1000))
        if not self._put_if_match(key, self._dump(renewed), etag):
            return None  # lost a race with a reclaimer: the lease is gone
        return replace(lease, deadline=deadline)

    def post(self, lease: ShardLease, results: ShardResults) -> bool:
        """Post one shard's results; returns ``False`` on a duplicate post."""
        name = lease.plan
        reference = self._identity(name)
        manifest = results.manifest
        _check_posted_results(
            reference, results,
            source=f"{self.store.describe()}: posted results")
        file_name = shard_file_name(manifest.shard_index,
                                    manifest.shard_count)
        first_post = self._put_if_absent(
            self._result_prefix(name) + file_name,
            self._dump(results.as_dict()))
        # Flip the lease object to done so nobody re-leases the shard.
        # Best-effort: result/ presence is what status/collect trust, so a
        # lost CAS race here costs at most one wasted re-run.
        key = self._lease_prefix(name) + file_name
        for _ in range(8):
            found = self._get_json(key)
            if found is None:
                break
            payload, etag = found
            if self._parse_lease_object(key, payload) == "done":
                break
            done = {"state": "done", "worker": lease.worker_id,
                    "grant": payload.get("grant", 0)}
            if self._put_if_match(key, self._dump(done), etag):
                break
        sink = telemetry.default_sink()
        # PlanDrained goes only to a live sink, so only then is the result
        # listing it needs worth reading.
        if sink and first_post \
                and len(self._done_names(name)) >= manifest.shard_count:
            ctx = tracectx.plan_context(name, manifest).child("drained")
            sink.emit(ctx.attach(PlanDrained(
                plan=name, shards=manifest.shard_count)))
        return first_post

    def collect(self, name: str = DEFAULT_PLAN) -> List[ShardResults]:
        """One plan's posted results, in shard-index order.

        Feed the list to :func:`~repro.bench.shard.merge_shard_results`,
        which (re)validates completeness and plan identity.  Collecting a
        name that was never submitted raises.
        """
        validate_plan_name(name)
        self._identity(name)
        collected = []
        for key in self._list(self._result_prefix(name)):
            found = self._get_json(key)
            if found is None:
                continue  # deleted mid-listing
            collected.append(ShardResults.from_dict(
                found[0], source=self._source(key)))
        _emit_collected(collected, name)
        return collected

    def status(self) -> BrokerStatus:
        """Per-plan + aggregate counters for progress and drain checks."""
        rows = []
        now_ms = int(self._clock() * 1000)
        for name in self.plan_names():
            header = self._header(name)
            source = self._source(self._plan_key(name))
            identity = _parse_plan_header(header, source)
            done = self._done_names(name)
            queued = leased = 0
            prefix = self._lease_prefix(name)
            for key in self._list(prefix):
                if key[len(prefix):] in done:
                    continue
                found = self._get_json(key)
                if found is None:
                    continue
                payload, _etag = found
                state = self._parse_lease_object(key, payload)
                if state == "queued":
                    queued += 1
                elif state == "leased":
                    deadline_ms = _require_int(payload, "deadline_ms",
                                               self._source(key))
                    if now_ms >= deadline_ms + self._skew_ms:
                        queued += 1  # expired: reclaimable, i.e. leasable
                    else:
                        leased += 1
            rows.append(PlanStatus(name=name,
                                   priority=_require_int(header, "priority",
                                                         source),
                                   queued=queued, leased=leased,
                                   done=len(done),
                                   shard_count=int(identity[0])))
        return BrokerStatus(plans=tuple(rows))


# ----------------------------------------------------------------------
# the worker pull loop
# ----------------------------------------------------------------------
#: Called after each posted manifest with the lease, its results and a
#: fresh queue snapshot (drives the CLI's per-manifest status lines).
ManifestCallback = Callable[[ShardLease, ShardResults, BrokerStatus], None]

#: Called after each heartbeat renewal attempt with the lease and whether
#: the renewal succeeded (``False`` means the lease was lost — the worker
#: will abandon the manifest).  Runs on the heartbeat thread.
RenewCallback = Callable[[ShardLease, bool], None]


class LeaseHeartbeat:
    """Background renewal of one held lease, every ``interval`` seconds.

    Start it right after leasing, stop it right after the manifest run
    (before posting).  :attr:`lease` is the freshest handle — post with it,
    since some brokers re-token the lease on every renewal.  If a renewal
    reports the lease lost (reclaimed by a peer, or a broker error mid
    renew), :attr:`lost` latches ``True`` and the thread exits; the worker
    must then abandon the manifest instead of posting.
    """

    def __init__(self, broker: ObjectStoreBroker, lease: ShardLease,
                 interval: float,
                 on_renew: Optional[RenewCallback] = None,
                 context: Optional[tracectx.SpanContext] = None) -> None:
        if not math.isfinite(interval) or interval <= 0:
            raise ShardError(f"heartbeat interval must be a finite number "
                             f"> 0, got {interval}")
        self.broker = broker
        self.interval = interval
        self.on_renew = on_renew
        #: The worker's lease span, passed explicitly because the renewal
        #: thread cannot see the worker thread's ambient (thread-local)
        #: context.  Renewal/lost events become its child spans.
        self.context = context
        self._renewals = 0
        self._lease = lease
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._lost = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"lease-heartbeat-{lease.manifest.shard_index}")

    @property
    def lease(self) -> ShardLease:
        with self._lock:
            return self._lease

    @property
    def lost(self) -> bool:
        return self._lost.is_set()

    def start(self) -> "LeaseHeartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                renewed = self.broker.renew(self.lease)
            except (ShardError, OSError):
                # Transient broker trouble (a storage blip mid-renew) is
                # not proof the lease is gone: the ttl/3 cadence leaves
                # further chances before expiry, and a lease that really
                # was reclaimed shows up as renew() -> None next tick.
                continue
            sink = telemetry.default_sink()
            if renewed is None:
                self._lost.set()
                if sink:
                    lease = self.lease
                    event = LeaseLost(shard_index=lease.manifest.shard_index,
                                      worker_id=lease.worker_id)
                    if self.context is not None:
                        event = self.context.child(
                            "lease_lost", lease.token).attach(event)
                    sink.emit(event)
                self._notify(self.lease, False)
                return
            with self._lock:
                self._lease = renewed
            if sink:
                self._renewals += 1
                event = LeaseRenewed(shard_index=renewed.manifest.shard_index,
                                     worker_id=renewed.worker_id)
                if self.context is not None:
                    event = self.context.child(
                        "lease_renewed", self._renewals).attach(event)
                sink.emit(event)
            self._notify(renewed, True)

    def _notify(self, lease: ShardLease, renewed: bool) -> None:
        if self.on_renew is None:
            return
        try:
            self.on_renew(lease, renewed)
        except Exception:
            # A broken observer (e.g. a closed stderr pipe) must not kill
            # the renewal thread — the lease staying alive is the point.
            pass


#: The cache counters a worker tracks per plan (subset of
#: ``ArtifactCache.stats()`` that is numeric and monotonic).
_CACHE_COUNTERS = ("hits", "misses", "evictions")


class ShardWorker:
    """Pull loop: lease → heartbeat + execute → post, until the queue drains.

    ``poll`` is the *maximum* sleep between queue checks while other
    workers still hold leases (their lease may expire and become ours to
    reclaim): idle polling backs off exponentially with jitter from
    :data:`IDLE_BACKOFF_BASE` up to ``min(poll, IDLE_BACKOFF_CAP)``, so
    hundreds of idle workers don't hammer one store with ``list_prefix``
    calls in lock-step.  With ``poll=0`` the worker exits as soon as
    nothing is leasable.  ``max_manifests`` caps how many manifests this
    worker will execute.

    ``daemon=True`` makes the worker *persistent*: instead of exiting when
    every plan drains, it keeps idle-polling (same backoff) and picks up
    newly submitted plans without a restart — the always-on fleet shape.
    A daemon exits when :meth:`stop` is called (the CLI wires SIGTERM and
    SIGINT to it, so shutdown is clean: the in-flight manifest finishes
    and posts first) or when it has been continuously idle for
    ``max_idle_s`` seconds.  Because drain is no longer an exit
    condition, a daemon requires ``poll > 0``.

    ``heartbeat`` is the seconds between background lease renewals while a
    manifest runs: ``None`` (the default) derives ``lease_ttl / 3`` from
    the broker, ``0`` disables heartbeats (the PR-3 behaviour: the lease
    must outlive the manifest on its own).  A heartbeat that discovers its
    lease was reclaimed makes the worker *abandon* the manifest — results
    are discarded unposted, since the reclaiming peer reproduces the same
    bytes — and move on to the next lease.  ``on_renew`` observes every
    renewal (note it fires on the heartbeat thread).

    In-process deadlines (idle backoff, ``max_idle_s``) are measured on
    ``time.monotonic`` — a wall-clock step can't cut an idle daemon's
    patience short or stretch it forever; only the *persisted* lease
    deadlines brokers compare across processes are wall-clock.  Transient
    store faults never reach the loop: the broker retries every store call
    under its own bounded :class:`~repro.bench.store.RetryPolicy`.

    After (or during) a run, :attr:`results_by_plan` groups this worker's
    posted results by plan name, and :attr:`cache_stats_by_plan` holds the
    worker-lifetime :class:`~repro.dmi.cache.ArtifactCache` deltas
    (hits/misses/evictions) attributed to each plan's manifests.
    """

    def __init__(self, broker: ObjectStoreBroker,
                 executor: Optional[ManifestExecutor] = None,
                 worker_id: Optional[str] = None, poll: float = 1.0,
                 max_manifests: Optional[int] = None,
                 heartbeat: Optional[float] = None,
                 on_renew: Optional[RenewCallback] = None,
                 sleep: Optional[Callable[[float], None]] = None,
                 daemon: bool = False,
                 max_idle_s: Optional[float] = None,
                 clock: Clock = time.monotonic) -> None:
        if not math.isfinite(poll) or poll < 0:
            raise ShardError(f"poll must be a finite number >= 0, got {poll}")
        if daemon and poll <= 0:
            raise ShardError(
                "a daemon worker requires poll > 0: poll=0 means 'exit as "
                "soon as nothing is leasable', which contradicts daemon "
                "mode's survive-drain contract")
        if max_idle_s is not None and (not math.isfinite(max_idle_s)
                                       or max_idle_s <= 0):
            raise ShardError(f"max_idle_s must be a finite number > 0, "
                             f"got {max_idle_s}")
        if max_manifests is not None and max_manifests < 1:
            raise ShardError(f"max_manifests must be >= 1, got {max_manifests}")
        lease_ttl = broker.lease_ttl
        if heartbeat is None:
            heartbeat = lease_ttl / DEFAULT_HEARTBEAT_FRACTION
        if not math.isfinite(heartbeat) or heartbeat < 0:
            raise ShardError(f"heartbeat must be a finite number >= 0, "
                             f"got {heartbeat}")
        if heartbeat and heartbeat >= lease_ttl:
            raise ShardError(
                f"heartbeat ({heartbeat}) must be shorter than the broker's "
                f"lease_ttl ({lease_ttl}), or the lease can expire between "
                "renewals")
        self.broker = broker
        self.executor = executor or ManifestExecutor()
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.poll = poll
        self.max_manifests = max_manifests
        self.heartbeat = heartbeat
        self.on_renew = on_renew
        self.daemon = daemon
        self.max_idle_s = max_idle_s
        #: Manifests whose lease was lost mid-run and were dropped unposted.
        self.abandoned = 0
        #: Posted results grouped by the plan each manifest came from.
        self.results_by_plan: Dict[str, List[ShardResults]] = {}
        #: Worker-lifetime ArtifactCache deltas attributed per plan.
        self.cache_stats_by_plan: Dict[str, Dict[str, int]] = {}
        self._clock = clock
        self._stop = threading.Event()
        # None → sleep on the stop event, so stop()/SIGTERM interrupts an
        # idle daemon immediately instead of after a full backoff sleep.
        self._sleep = sleep
        #: Jitter source for idle backoff, seeded from the worker id so a
        #: test fleet's sleep schedule is reproducible while real fleets
        #: (unique hostname-pid ids) still decorrelate.
        self._backoff_rng = random.Random(f"idle-backoff:{self.worker_id}")

    def stop(self) -> None:
        """Ask the worker to exit cleanly: the current manifest finishes
        and posts, then :meth:`run` returns (idle sleeps are interrupted).
        Safe to call from any thread or a signal handler."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def run(self, progress: Optional[ProgressCallback] = None,
            on_manifest: Optional[ManifestCallback] = None) -> List[ShardResults]:
        """Drain the queue (or serve forever in daemon mode); returns the
        results this worker posted.

        ``max_manifests`` counts *executions* (posted or abandoned), so the
        cap bounds this worker's compute even under lease churn.
        """
        completed: List[ShardResults] = []
        executed = 0
        idle_streak = 0
        idle_since: Optional[float] = None
        while not self._stop.is_set() and (self.max_manifests is None
                                           or executed < self.max_manifests):
            sink = telemetry.default_sink()
            lease_started = time.perf_counter() if sink else 0.0
            lease = self.broker.lease(self.worker_id)
            if lease is None:
                snapshot = self.broker.status()
                self._emit_queue_depth(sink, snapshot)
                if snapshot.queued > 0:
                    continue  # lost a lease race; try again immediately
                if not self.daemon and (snapshot.leased == 0
                                        or self.poll <= 0):
                    break  # drained (or not polling for reclaims)
                now = self._clock()
                if idle_since is None:
                    idle_since = now
                if self.max_idle_s is not None \
                        and now - idle_since >= self.max_idle_s:
                    break  # daemon idle timeout
                self._idle_sleep(idle_streak, sink)
                idle_streak += 1
                continue
            idle_streak = 0
            idle_since = None
            # The shard's lease span: the worker-side root everything this
            # manifest does hangs off (trial spans, renewals, the post).
            # Qualified by the lease token so re-leases after churn are
            # distinct spans, and parented to the plan's submit span.
            ctx = None
            if sink:
                ctx = tracectx.shard_context(lease.plan, lease.manifest,
                                             "lease", qualifier=lease.token)
                sink.emit(ctx.attach(
                    LeaseAcquired(shard_index=lease.manifest.shard_index,
                                  worker_id=self.worker_id),
                    duration_s=time.perf_counter() - lease_started))
            beat = None
            if self.heartbeat > 0:
                beat = LeaseHeartbeat(self.broker, lease, self.heartbeat,
                                      on_renew=self.on_renew,
                                      context=ctx).start()
            stats_before = self.executor.cache_stats()
            try:
                if ctx is not None:
                    tracectx.push(ctx)
                results = self.executor.run(lease.manifest, progress=progress)
            finally:
                if ctx is not None:
                    tracectx.pop(ctx)
                if beat is not None:
                    beat.stop()
            executed += 1
            self._account_cache(lease.plan, stats_before)
            if beat is not None:
                if beat.lost:
                    # Reclaimed out from under us: a peer owns the shard
                    # and will post identical bytes.  Drop ours unposted.
                    self.abandoned += 1
                    if sink:
                        sink.emit(ctx.child("abandon", lease.token).attach(
                            ManifestAbandoned(
                                shard_index=lease.manifest.shard_index,
                                worker_id=self.worker_id)))
                    continue
                lease = beat.lease  # renewals may have re-tokened it
            posted = lease
            post_ctx = None
            post_started = 0.0
            if ctx is not None:
                # A dedicated post span is pushed around the broker call so
                # store retries inside the post attach to it — a chaos
                # schedule's bite is then visible in the trial's timeline.
                post_ctx = ctx.child("post", posted.token)
                tracectx.push(post_ctx)
                post_started = time.perf_counter()
            try:
                first_post = self.broker.post(posted, results)
            finally:
                if post_ctx is not None:
                    tracectx.pop(post_ctx)
            completed.append(results)
            self.results_by_plan.setdefault(lease.plan, []).append(results)
            if sink:
                sink.emit(post_ctx.attach(
                    ShardPosted(shard_index=lease.manifest.shard_index,
                                worker_id=self.worker_id,
                                results=len(results.results),
                                first_post=first_post),
                    duration_s=time.perf_counter() - post_started))
            if on_manifest is not None or sink:
                snapshot = self.broker.status()
                self._emit_queue_depth(sink, snapshot)
                if on_manifest is not None:
                    on_manifest(lease, results, snapshot)
        return completed

    def _account_cache(self, plan: str,
                       before: Optional[Dict[str, object]]) -> None:
        """Attribute the executor cache's counter movement to ``plan``."""
        after = self.executor.cache_stats()
        if after is None:
            return
        bucket = self.cache_stats_by_plan.setdefault(
            plan, {key: 0 for key in _CACHE_COUNTERS})
        for key in _CACHE_COUNTERS:
            start = before.get(key, 0) if before else 0
            bucket[key] += int(after.get(key, 0)) - int(start)

    def _emit_queue_depth(self, sink: EventSink,
                          snapshot: BrokerStatus) -> None:
        if not sink:
            return
        for plan in snapshot.plans:
            # A wall-clock ts (no trace — queue depth is fleet state, not
            # part of any one trial) so aggregators can window drain rates.
            sink.emit(tracectx.leaf(QueueDepth(
                plan=plan.name, queued=plan.queued,
                leased=plan.leased, done=plan.done)))

    def _idle_sleep(self, streak: int, sink: EventSink) -> None:
        """One backoff sleep: ``base * 2^streak`` jittered, capped by
        ``min(poll, IDLE_BACKOFF_CAP)``."""
        cap = min(self.poll, IDLE_BACKOFF_CAP)
        delay = min(cap, IDLE_BACKOFF_BASE * (2.0 ** min(streak, 32)))
        # Jitter into [0.5, 1.0) of the nominal delay so a fleet of workers
        # that went idle together doesn't re-poll in lock-step.
        delay *= 0.5 + 0.5 * self._backoff_rng.random()
        if sink:
            sink.emit(tracectx.leaf(WorkerIdle(
                worker_id=self.worker_id, slept_s=delay, streak=streak)))
        if self._sleep is not None:
            self._sleep(delay)
        else:
            self._stop.wait(delay)
