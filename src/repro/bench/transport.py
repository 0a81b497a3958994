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
    the plan name is folded into the ``lease/`` and ``result/`` key
    layout, with one object per plan under ``plans/`` holding its
    manifests).  Over a :class:`~repro.bench.store.FileSystemObjectStore`
    it is a shared (NFS-style) directory queue; over a cloud store it is
    deployable unchanged.  Any number of workers on any number of machines
    race for leases without locks: a claim creates the shard's lease
    object, and only the first create wins.  Leases expire after
    ``lease_ttl`` seconds and are reclaimed by compare-and-swap, so a
    crashed worker's manifest is re-run by a peer.

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
    _require_list,
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
    PlanSubmitted,
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


def _plan_payload(plan: ShardPlan, name: str,
                  priority: int) -> Dict[str, object]:
    """The ``plans/<name>`` object: identity header, priority, manifests."""
    payload: Dict[str, object] = {
        "kind": _PLAN_KIND,
        "format_version": MANIFEST_FORMAT_VERSION,
        "plan": name,
        "priority": priority,
    }
    # Derived from the identity tuple itself so the header can never drift
    # from plan_identity()'s field set.
    for label, value in zip(PLAN_IDENTITY_LABELS,
                            plan.manifests[0].plan_identity()):
        payload[label] = list(value) if isinstance(value, tuple) else value
    payload["manifests"] = [manifest.as_dict() for manifest in plan.manifests]
    return payload


def _parse_plan_header(payload: Dict[str, object],
                       source: str) -> Tuple[object, ...]:
    """Validate a plan header payload into a ``plan_identity()`` tuple."""
    _check_header(payload, _PLAN_KIND, source)
    return tuple(_IDENTITY_PARSERS.get(label, _require)(payload, label,
                                                        source)
                 for label in PLAN_IDENTITY_LABELS)


@dataclass(frozen=True)
class _Plan:
    """One submitted plan as a broker handle memoizes it (``manifests`` is
    emptied once the handle has seen the plan complete)."""

    name: str
    priority: int
    identity: Tuple[object, ...]
    manifests: Tuple[ShardManifest, ...]

    @property
    def shard_count(self) -> int:
        return self.identity[0]

    def file_name(self, index: int) -> str:
        return shard_file_name(index, self.shard_count)

    @classmethod
    def checked(cls, name: str, priority: int, identity: Tuple[object, ...],
                manifests: Sequence[ShardManifest], source: str) -> "_Plan":
        """Every manifest belongs to the plan and sits at its own index."""
        if len(manifests) != identity[0]:
            raise ShardError(f"{source}: holds {len(manifests)} manifest(s) "
                             f"for a {identity[0]}-shard plan")
        for position, manifest in enumerate(manifests):
            where = f"{source} manifests[{position}]"
            check_plan_identity(identity, manifest, source=where)
            if manifest.shard_index != position:
                raise ShardError(f"{where}: carries shard index "
                                 f"{manifest.shard_index}")
        return cls(name, priority, identity, tuple(manifests))


def _parse_plan(name: str, payload: Dict[str, object], source: str) -> _Plan:
    """Validate a ``plans/<name>`` payload into a :class:`_Plan`."""
    identity = _parse_plan_header(payload, source)
    priority = _require_int(payload, "priority", source)
    manifests = []
    for position, entry in enumerate(_require_list(payload, "manifests",
                                                   source)):
        where = f"{source} manifests[{position}]"
        if not isinstance(entry, dict):
            raise ShardError(f"{where}: is not a JSON object")
        manifests.append(ShardManifest.from_dict(entry, source=where))
    return _Plan.checked(name, priority, identity, manifests, source)


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
        """The per-plan table ``repro shard status`` prints."""
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

        plans/<name>                the plan's identity header, priority
                                    and every manifest (``put_if_absent``
                                    once by submit); listing ``plans/`` is
                                    the plan index
        lease/<name>/<shard>        absent until a worker claims the shard
                                    (``put_if_absent``); reclaiming an
                                    expired lease and renewing a held one
                                    are compare-and-swaps on it
        result/<name>/<shard>       posted ShardResults (``put_if_absent``:
                                    first write wins); the shard is done
                                    exactly when this key exists

    A lease object is ``{"state": "leased", "worker": …, "deadline_ms": …,
    "grant": …}``.  A claim creates it, so any number of workers race
    safely: exactly one create wins.  ``grant`` increments on every
    reclaim and is embedded in the lease token, so a stale holder's
    :meth:`renew` can never pass for the current holder's.  A drain of one
    plan by one worker therefore writes the plan once, then a claim and a
    result per shard.

    A handle reads each plan object once and memoizes it (no verb deletes
    a plan, so the memo cannot go stale).  It walks each plan's shard
    indices from its own cursor, claiming as it goes; after a lost claim
    it lists the plan's lease keys once to skip every claimed shard, so
    with N workers a lease costs about one lost create, not N - 1.  It
    lists a plan's results only once the cursor is exhausted, to find
    unfinished shards whose lease expired; a plan whose every shard has a
    result is remembered as complete, and its memo drops the manifests.
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
    (lost claims and CAS races, missing objects) are *results*, not
    errors, and are never retried here.
    """

    PLANS_PREFIX = "plans/"
    LEASE_PREFIX = "lease/"
    RESULT_PREFIX = "result/"
    _LEASE_STATES = ("leased",)

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
        #: Plan objects read by this handle, by name.
        self._plans: Dict[str, _Plan] = {}
        #: Per plan, the next shard index this handle tries to claim.
        self._cursor: Dict[str, int] = {}
        #: Plans this handle has seen a result for every shard of; their
        #: memo keeps the header fields and drops the manifests.
        self._complete: set = set()

    # ------------------------------------------------------------------
    # store plumbing
    # ------------------------------------------------------------------
    def _source(self, key: str) -> str:
        return f"{self.store.describe()}: object {key!r}"

    def _store_call(self, op: str, key: str, fn):
        return call_with_retries(fn, op=op, key=key, policy=self.retry)

    def _get(self, key: str):
        return self._store_call("get", key, lambda: self.store.get(key))

    def _get_json(self, key: str) -> Optional[Tuple[Dict[str, object], str]]:
        stored = self._get(key)
        if stored is None:
            return None
        data, etag = stored
        return _parse_json_bytes(data, self._source(key)), etag

    @staticmethod
    def _dump(payload: Dict[str, object]) -> bytes:
        # No indent: an indent forces CPython's pure-Python encoder.
        return json.dumps(payload).encode("utf-8")

    def _plan_key(self, name: str) -> str:
        return self.PLANS_PREFIX + name

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
        # Faults strike before the write, so a retry is safe.  A store
        # that lands a write and then reports an error makes the retry
        # read False: for a plan or a result that is the same bytes a peer
        # would write; for a claim, the shard comes back after lease_ttl.
        return self._store_call(
            "put_if_absent", key,
            lambda: self.store.put_if_absent(key, data))

    def _put_if_match(self, key: str, data: bytes, etag: str) -> bool:
        return self._store_call(
            "put_if_match", key,
            lambda: self.store.put_if_match(key, data, etag))

    def _plan(self, name: str) -> _Plan:
        """The named plan, read from the store on this handle's first use."""
        plan = self._plans.get(name)
        if plan is not None:
            return plan
        key = self._plan_key(name)
        found = self._get_json(key)
        if found is None:
            known = ", ".join(self.plan_names()) or "none"
            raise ShardError(
                f"{self.store.describe()}: no plan has been submitted to "
                f"this object store under the name {name!r} (run 'repro "
                f"shard submit' first; known plans: {known})")
        plan = self._plans[name] = _parse_plan(name, found[0],
                                               self._source(key))
        return plan

    def _deadline_ms(self, key: str, payload: Dict[str, object]) -> int:
        """A lease object's deadline, after checking its shape."""
        source = self._source(key)
        state = _require_str(payload, "state", source)
        if state not in self._LEASE_STATES:
            raise ShardError(f"{source}: field 'state' is {state!r}; "
                             f"expected one of "
                             f"{', '.join(map(repr, self._LEASE_STATES))}")
        return _require_int(payload, "deadline_ms", source)

    def _live(self, key: str, payload: Dict[str, object],
              now_ms: int) -> bool:
        """Whether a lease object still protects its holder (skew grace
        included)."""
        return now_ms < self._deadline_ms(key, payload) + self._skew_ms

    def _mark_complete(self, plan: _Plan) -> None:
        """Results never go away, so a complete plan stays complete: keep
        its header fields for ``post``, ``collect`` and ``status`` only."""
        self._complete.add(plan.name)
        self._plans[plan.name] = replace(plan, manifests=())

    def _names(self, prefix: str) -> set:
        """The shard file names listed under ``prefix``."""
        return {key[len(prefix):] for key in self._list(prefix)}

    # ------------------------------------------------------------------
    # fair-share rotation
    # ------------------------------------------------------------------
    def _fair_share_order(
            self, candidates: Sequence[Tuple[str, int, int]]) -> List[str]:
        """Order plans for the next lease attempt.

        ``candidates`` is ``(name, priority, unclaimed_depth)`` for every
        plan this handle has not seen complete; the depth is the shards
        past its cursor.  Least-served (by this handle) goes first — plain
        round-robin, so a 1000-shard plan and a 3-shard plan alternate
        leases instead of the small one waiting out the big one — with
        higher ``priority``, deeper queue, then name breaking ties.
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
            ctx = tracectx.plan_context(name,
                                        plan.manifests[0].plan_identity())
            sink.emit(ctx.attach(PlanSubmitted(
                plan=name, shards=plan.shard_count, priority=priority)))

    # ------------------------------------------------------------------
    # the queue verbs
    # ------------------------------------------------------------------
    def submit(self, plan: ShardPlan, name: str = DEFAULT_PLAN,
               priority: int = 0) -> None:
        """Enqueue every manifest of ``plan`` under ``name``: one write.

        One plan per name: resubmitting an occupied name raises.  Higher
        ``priority`` plans win lease-order ties against equally-served
        peers.
        """
        name = validate_plan_name(name)
        _check_priority(priority)
        _check_submittable(plan)
        _Plan.checked(name, priority, plan.manifests[0].plan_identity(),
                      plan.manifests, f"plan {name!r}")
        if not self._put_if_absent(self._plan_key(name), self._dump(
                _plan_payload(plan, name, priority))):
            raise ShardError(
                f"{self.store.describe()}: object store already holds a "
                f"plan named {name!r} (collect it or pick another plan "
                "name)")
        self._emit_plan_submitted(name, plan, priority)

    def lease(self, worker_id: str) -> Optional[ShardLease]:
        """Atomically take one unclaimed or expired manifest, or ``None``.

        Plans are tried in fair-share order (round-robin per handle,
        ``priority`` then unclaimed depth as tiebreaks) and the returned
        lease is tagged with its plan name.  Expired leases are reclaimed
        too, so a crashed worker's manifest becomes leasable again after
        ``lease_ttl`` seconds.  A broker holding no plans at all is simply
        empty (``None``), so daemon workers may start before the first
        submit.
        """
        candidates = []
        for name in self.plan_names():
            if name in self._complete:
                continue
            plan = self._plan(name)
            candidates.append((name, plan.priority,
                               plan.shard_count - self._cursor.get(name, 0)))
        for name in self._fair_share_order(candidates):
            plan = self._plan(name)
            lease = (self._claim_next(plan, worker_id)
                     or self._reclaim(plan, worker_id))
            if lease is not None:
                self._served[name] = self._served.get(name, 0) + 1
                return lease
        return None

    def _claim_next(self, plan: _Plan,
                    worker_id: str) -> Optional[ShardLease]:
        """Claim the first shard past this handle's cursor nobody holds.

        A lost claim means peers are claiming too: one listing of the
        plan's lease keys then moves the cursor past every shard already
        claimed, so a handle racing peers pays one lost create per lease,
        not one per shard its peers took since its last lease.
        """
        cursor = self._cursor.get(plan.name, 0)
        lease = None
        while lease is None and cursor < plan.shard_count:
            lease = self._grant(plan, cursor, worker_id, grant=1)
            cursor += 1
            if lease is None:
                claimed = self._names(self._lease_prefix(plan.name))
                while (cursor < plan.shard_count
                       and plan.file_name(cursor) in claimed):
                    cursor += 1
        self._cursor[plan.name] = cursor
        return lease

    def _reclaim(self, plan: _Plan, worker_id: str) -> Optional[ShardLease]:
        """Take an unfinished shard whose lease expired (the cursor is
        exhausted, so every shard has been claimed once)."""
        done = self._names(self._result_prefix(plan.name))
        pending = [index for index in range(plan.shard_count)
                   if plan.file_name(index) not in done]
        if not pending:
            self._mark_complete(plan)
            return None
        now_ms = int(self._clock() * 1000)
        prefix = self._lease_prefix(plan.name)
        for index in pending:
            key = prefix + plan.file_name(index)
            found = self._get_json(key)
            if found is None:  # never claimed: claim it now
                lease = self._grant(plan, index, worker_id, grant=1)
            else:
                payload, etag = found
                if self._live(key, payload, now_ms):
                    continue  # a live peer holds it (within skew grace)
                grant = _require_int(payload, "grant", self._source(key))
                lease = self._grant(plan, index, worker_id, grant + 1, etag)
            if lease is not None:
                return lease
        return None

    def _grant(self, plan: _Plan, index: int, worker_id: str, grant: int,
               etag: Optional[str] = None) -> Optional[ShardLease]:
        """Write the lease object for shard ``index``: create it, or swap
        the expired one read at ``etag``; ``None`` if a peer got there
        first."""
        file_name = plan.file_name(index)
        key = self._lease_prefix(plan.name) + file_name
        deadline = self._clock() + self.lease_ttl
        claim = self._dump({"state": "leased", "worker": worker_id,
                            "deadline_ms": int(deadline * 1000),
                            "grant": grant})
        won = (self._put_if_absent(key, claim) if etag is None
               else self._put_if_match(key, claim, etag))
        if not won:
            return None
        return ShardLease(manifest=plan.manifests[index], worker_id=worker_id,
                          deadline=deadline, token=f"{file_name}:{grant}",
                          plan=plan.name)

    def renew(self, lease: ShardLease) -> Optional[ShardLease]:
        """Extend a still-held lease by ``lease_ttl`` from now.

        Returns the refreshed :class:`ShardLease` (post with *that* handle
        from then on), or ``None`` if the lease is no longer held — it
        expired and was reclaimed, or its shard is already done.  A ``None``
        tells the worker to abandon the manifest: a peer owns it now and
        will reproduce the same bytes.
        """
        # No plan read here: a ShardLease proves the plan was already
        # validated, and renew is the heartbeat hot path.
        file_name, _, grant_text = lease.token.rpartition(":")
        key = self._lease_prefix(lease.plan) + file_name
        found = self._get_json(key)
        if found is None:
            return None
        payload, etag = found
        self._deadline_ms(key, payload)
        if payload.get("grant") != int(grant_text):
            return None  # reclaimed: a new grant
        if self._get(self._result_prefix(lease.plan) + file_name) is not None:
            return None  # already done
        deadline = self._clock() + self.lease_ttl
        renewed = dict(payload, deadline_ms=int(deadline * 1000))
        if not self._put_if_match(key, self._dump(renewed), etag):
            return None  # lost a race with a reclaimer: the lease is gone
        return replace(lease, deadline=deadline)

    def post(self, lease: ShardLease, results: ShardResults) -> bool:
        """Post one shard's results; returns ``False`` on a duplicate post.

        The result object is the shard's "done": one create, first write
        wins, and the lease object is left as it is.
        """
        _check_posted_results(
            self._plan(lease.plan).identity, results,
            source=f"{self.store.describe()}: posted results")
        manifest = results.manifest
        return self._put_if_absent(
            self._result_prefix(lease.plan)
            + shard_file_name(manifest.shard_index, manifest.shard_count),
            self._dump(results.as_dict()))

    def collect(self, name: str = DEFAULT_PLAN) -> List[ShardResults]:
        """One plan's posted results, in shard-index order.

        Feed the list to :func:`~repro.bench.shard.merge_shard_results`,
        which (re)validates completeness and plan identity.  Collecting a
        name that was never submitted raises.
        """
        validate_plan_name(name)
        identity = self._plan(name).identity
        # The reads run under a collect span of the plan trace, so a store
        # retry they absorb joins every trial's timeline (build_trace pulls
        # the plan trace into each trial's closure).
        ctx = None
        if telemetry.default_sink():
            ctx = tracectx.push(
                tracectx.plan_context(name, identity).child("collect"))
        collected = []
        try:
            for key in self._list(self._result_prefix(name)):
                found = self._get_json(key)
                if found is None:
                    continue  # deleted mid-listing
                collected.append(ShardResults.from_dict(
                    found[0], source=self._source(key)))
        finally:
            if ctx is not None:
                tracectx.pop(ctx)
        _emit_collected(collected, name)
        return collected

    def status(self) -> BrokerStatus:
        """Per-plan + aggregate counters for progress and drain checks.

        Lists each plan's results and leases: ``done`` counts results,
        ``leased`` the live leases of unfinished shards, and ``queued`` the
        rest (never claimed, or claimed and expired).
        """
        rows = []
        now_ms = int(self._clock() * 1000)
        for name in self.plan_names():
            plan = self._plan(name)
            done = self._names(self._result_prefix(name))
            leased = 0
            prefix = self._lease_prefix(name)
            for key in self._list(prefix):
                if key[len(prefix):] in done:
                    continue
                found = self._get_json(key)
                if found is not None and self._live(key, found[0], now_ms):
                    leased += 1
            if len(done) == plan.shard_count:
                self._mark_complete(plan)
            rows.append(PlanStatus(
                name=name, priority=plan.priority,
                queued=plan.shard_count - len(done) - leased, leased=leased,
                done=len(done), shard_count=plan.shard_count))
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
    """Background renewal of the held lease, every ``interval`` seconds.

    One heartbeat thread serves a worker's whole run: the lease passed to
    the constructor is held from :meth:`start`, :meth:`hold` points the
    thread at each later lease (with that lease's span context) right after
    leasing, :meth:`release` stops the renewals right after the manifest
    run, before posting, and :meth:`stop` ends the thread.  A held lease is
    renewed within ``interval`` of being held and every ``interval`` after.
    :attr:`lease` is the freshest handle — post with it, since some brokers
    re-token the lease on every renewal.  If a renewal reports the lease
    lost (reclaimed by a peer, or a broker error mid renew), :attr:`lost`
    latches ``True`` until the next :meth:`hold` and renewals stop; the
    worker must then abandon the manifest instead of posting.
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
        #: The held lease's span, passed explicitly because the renewal
        #: thread cannot see the worker thread's ambient (thread-local)
        #: context.  Renewal/lost events become its child spans.
        self.context = context
        self._renewals = 0
        self._lease = lease
        self._held = True
        #: Held across each renewal, so :meth:`release` returns only once
        #: no renewal is in flight (re-entrant: ``on_renew`` may read
        #: :attr:`lease`).
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._lost = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="lease-heartbeat")

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

    def hold(self, lease: ShardLease,
             context: Optional[tracectx.SpanContext] = None) -> None:
        """Renew ``lease`` from now on."""
        with self._lock:
            self._lease = lease
            self.context = context
            self._renewals = 0
            self._lost.clear()
            self._held = True

    def release(self) -> None:
        """Stop renewing; returns once no renewal is in flight."""
        with self._lock:
            self._held = False

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            with self._lock:
                if self._held:
                    self._renew()

    def _renew(self) -> None:
        lease = self._lease
        try:
            renewed = self.broker.renew(lease)
        except (ShardError, OSError):
            # Transient broker trouble (a storage blip mid-renew) is
            # not proof the lease is gone: the ttl/3 cadence leaves
            # further chances before expiry, and a lease that really
            # was reclaimed shows up as renew() -> None next tick.
            return
        sink = telemetry.default_sink()
        if renewed is None:
            self._held = False
            self._lost.set()
            if sink:
                event = LeaseLost(shard_index=lease.manifest.shard_index,
                                  worker_id=lease.worker_id)
                if self.context is not None:
                    event = self.context.child(
                        "lease_lost", lease.token).attach(event)
                sink.emit(event)
            self._notify(lease, False)
            return
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
        #: The running :meth:`run`'s heartbeat, once it has leased.
        self._beat: Optional[LeaseHeartbeat] = None

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
        cap bounds this worker's compute even under lease churn.  One
        heartbeat thread, started at the first lease, renews every lease
        of the run.
        """
        try:
            return self._drain(progress, on_manifest)
        finally:
            if self._beat is not None:
                self._beat.stop()
                self._beat = None

    def _drain(self, progress: Optional[ProgressCallback],
               on_manifest: Optional[ManifestCallback]) -> List[ShardResults]:
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
            beat = self._beat
            if self.heartbeat > 0:
                if beat is None:
                    beat = self._beat = LeaseHeartbeat(
                        self.broker, lease, self.heartbeat,
                        on_renew=self.on_renew, context=ctx).start()
                else:
                    beat.hold(lease, ctx)
            stats_before = self.executor.cache_stats()
            try:
                if ctx is not None:
                    tracectx.push(ctx)
                results = self.executor.run(lease.manifest, progress=progress)
            finally:
                if ctx is not None:
                    tracectx.pop(ctx)
                if beat is not None:
                    beat.release()
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
            if on_manifest is not None:
                on_manifest(lease, results, self.broker.status())
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
