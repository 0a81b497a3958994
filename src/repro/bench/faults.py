"""Deterministic, seeded fault injection for the broker stack.

The broker contract (``tests/broker_contract.py``) proves the queue at
*cloud shape*; this module proves it at *cloud weather*.  It decorates the
storage layer with reproducible adversarial schedules — latency spikes,
transient errors, CAS-lost storms, truncated listings — so the
retry/reclaim paths the contract depends on are actually driven, not
merely present:

:class:`FaultSchedule`
    The reproducible adversary: a seed plus a per-operation
    :class:`FaultSpec` (probability, burst length, latency bound).  Every
    decision comes from a per-op :mod:`random` stream derived from the
    seed, so the same schedule replays the same fault sequence; the whole
    schedule round-trips through JSON (:meth:`FaultSchedule.save` /
    :meth:`FaultSchedule.load`) so CI jobs and bug reports can pin the
    exact weather a run survived (``repro shard … --fault-schedule FILE``).
:class:`FaultyObjectStore`
    Wraps any five-method :class:`~repro.bench.store.ObjectStore`:
    injected sleeps, :class:`~repro.bench.store.TransientStoreError`\\ s
    raised *before* the inner call (so a retried op is never half-applied),
    ``put_if_match`` calls reported lost without being attempted (a CAS
    storm), and ``list_prefix`` pages truncated to a prefix of the truth
    (the partial-list behaviour real object stores exhibit under eventual
    consistency).  :class:`~repro.bench.transport.ObjectStoreBroker`
    retries every store call with bounded backoff, and the chaos
    conformance suite holds every contract clause to verbatim: bounded
    retry makes injected transients *invisible* to callers, which is the
    whole claim.

Injection happens strictly before the wrapped call, so a fault never
corrupts state — it only makes the operation slower, lie about losing, or
fail with a retryable error.  That is exactly the failure envelope the
paper's evaluation pipeline must shrug off to keep its merged output
bit-identical to serial (``tests/test_equivalence.py`` asserts this under a
hostile schedule).
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.bench import telemetry
from repro.bench.shard import ShardError
from repro.bench.store import ObjectStore, StoredObject, TransientStoreError
from repro.bench.telemetry import CasRetry

_SCHEDULE_KIND = "repro-fault-schedule"
_SCHEDULE_FORMAT_VERSION = 1

#: The injectable store operations; also the legal op names in a schedule
#: file (anything else is a typo worth rejecting).
STORE_OPS = ("put_if_absent", "put_if_match", "get", "list_prefix", "delete")


def _check_rate(op: str, label: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0.0 <= float(value) <= 1.0:
        raise ShardError(f"fault spec for {op!r}: {label} must be a "
                         f"probability in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class FaultSpec:
    """How one operation misbehaves (all fields off by default).

    ``error_rate``
        Probability a call raises a :class:`TransientStoreError` before
        touching the wrapped backend; once triggered, the next
        ``error_burst - 1`` calls of the same op fail too (a burst models
        the correlated blips real storage produces, and is what pushes
        single-retry consumers past their comfort zone).
    ``latency_s``
        Upper bound of a uniform injected sleep per call.
    ``cas_lost_rate``
        ``put_if_match``: probability the call reports its race lost
        *without attempting the swap* — a CAS storm from the caller's point
        of view (a lost lease renewal drives a worker's abandon path).
    ``truncate_rate``
        ``list_prefix``: probability the listing returns only a seeded
        prefix of the real page (never fabricated keys — partial truth,
        like an eventually consistent list).
    """

    error_rate: float = 0.0
    error_burst: int = 1
    latency_s: float = 0.0
    cas_lost_rate: float = 0.0
    truncate_rate: float = 0.0

    def validate(self, op: str) -> "FaultSpec":
        for label in ("error_rate", "cas_lost_rate", "truncate_rate"):
            _check_rate(op, label, getattr(self, label))
        if isinstance(self.error_burst, bool) \
                or not isinstance(self.error_burst, int) \
                or self.error_burst < 1:
            raise ShardError(f"fault spec for {op!r}: error_burst must be "
                             f"an integer >= 1, got {self.error_burst!r}")
        if isinstance(self.latency_s, bool) \
                or not isinstance(self.latency_s, (int, float)) \
                or self.latency_s < 0:
            raise ShardError(f"fault spec for {op!r}: latency_s must be a "
                             f"number >= 0, got {self.latency_s!r}")
        return self

    @property
    def quiet(self) -> bool:
        """No fault of any kind can fire from this spec."""
        return (self.error_rate == 0.0 and self.latency_s == 0.0
                and self.cas_lost_rate == 0.0 and self.truncate_rate == 0.0)

    def as_dict(self) -> Dict[str, object]:
        return {field.name: getattr(self, field.name)
                for field in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, object], op: str) -> "FaultSpec":
        if not isinstance(payload, dict):
            raise ShardError(f"fault spec for {op!r} must be a JSON object, "
                             f"got {type(payload).__name__}")
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ShardError(f"fault spec for {op!r}: unknown field(s) "
                             f"{', '.join(map(repr, unknown))} (expected "
                             f"{', '.join(sorted(known))})")
        return cls(**payload).validate(op)


@dataclass(frozen=True)
class FaultDecision:
    """What the schedule chose for one call (computed, never persisted)."""

    delay_s: float = 0.0
    error: bool = False
    cas_lost: bool = False
    truncate: bool = False
    #: Fraction of the true listing to keep when ``truncate`` fired.
    keep_fraction: float = 1.0


_NO_FAULT = FaultDecision()


class FaultSchedule:
    """A seeded, replayable stream of per-operation fault decisions.

    Each op draws from its own :class:`random.Random` stream derived from
    ``(seed, op)``, so the decision sequence *per op* is a pure function of
    the schedule — independent of how calls to different ops interleave.
    :meth:`decide` is thread-safe; :meth:`reset` rewinds every stream so a
    second run replays the identical weather.  Serializable to JSON for CI
    (``kind: repro-fault-schedule``).
    """

    def __init__(self, seed: int = 0,
                 ops: Optional[Dict[str, FaultSpec]] = None) -> None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ShardError(f"fault schedule seed must be an integer, "
                             f"got {seed!r}")
        known = set(STORE_OPS)
        self.ops: Dict[str, FaultSpec] = {}
        for op, spec in (ops or {}).items():
            if op not in known:
                raise ShardError(
                    f"fault schedule: unknown op {op!r} (expected one of "
                    f"{', '.join(sorted(known))})")
            self.ops[op] = spec.validate(op)
        self.seed = seed
        self._lock = threading.Lock()
        self._streams: Dict[str, random.Random] = {}
        self._bursts: Dict[str, int] = {}

    def spec(self, op: str) -> FaultSpec:
        return self.ops.get(op, _QUIET_SPEC)

    def reset(self) -> None:
        """Rewind every op stream: the next run replays the same faults."""
        with self._lock:
            self._streams.clear()
            self._bursts.clear()

    def decide(self, op: str) -> FaultDecision:
        spec = self.spec(op)
        if spec.quiet:
            return _NO_FAULT
        with self._lock:
            rng = self._streams.get(op)
            if rng is None:
                rng = self._streams[op] = random.Random(f"{self.seed}:{op}")
            burst_left = self._bursts.get(op, 0)
            if burst_left > 0:
                self._bursts[op] = burst_left - 1
                error = True
            else:
                error = rng.random() < spec.error_rate
                if error:
                    self._bursts[op] = spec.error_burst - 1
            delay = rng.uniform(0.0, spec.latency_s) if spec.latency_s else 0.0
            cas_lost = (not error and spec.cas_lost_rate > 0
                        and rng.random() < spec.cas_lost_rate)
            truncate = (not error and spec.truncate_rate > 0
                        and rng.random() < spec.truncate_rate)
            keep = rng.random() if truncate else 1.0
        return FaultDecision(delay_s=delay, error=error, cas_lost=cas_lost,
                             truncate=truncate, keep_fraction=keep)

    # ------------------------------------------------------------------
    # JSON round trip (the CI/replay format)
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": _SCHEDULE_KIND,
            "format_version": _SCHEDULE_FORMAT_VERSION,
            "seed": self.seed,
            "ops": {op: self.ops[op].as_dict() for op in sorted(self.ops)},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object],
                  source: str = "fault schedule") -> "FaultSchedule":
        if not isinstance(payload, dict):
            raise ShardError(f"{source}: must be a JSON object")
        kind = payload.get("kind")
        if kind != _SCHEDULE_KIND:
            raise ShardError(f"{source}: field 'kind' is {kind!r}; expected "
                             f"a {_SCHEDULE_KIND!r} file")
        version = payload.get("format_version")
        if version != _SCHEDULE_FORMAT_VERSION:
            raise ShardError(
                f"{source}: field 'format_version' is {version!r}; this "
                f"build reads format version {_SCHEDULE_FORMAT_VERSION}")
        seed = payload.get("seed", 0)
        ops_payload = payload.get("ops", {})
        if not isinstance(ops_payload, dict):
            raise ShardError(f"{source}: field 'ops' must be a JSON object")
        return cls(seed=seed,
                   ops={op: FaultSpec.from_dict(spec, op)
                        for op, spec in ops_payload.items()})

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=1) + "\n",
                        encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultSchedule":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as error:
            raise ShardError(f"fault schedule: cannot read {path!s}: "
                             f"{error}") from error
        except json.JSONDecodeError as error:
            raise ShardError(f"fault schedule: {path!s} is not valid JSON: "
                             f"{error}") from error
        return cls.from_dict(payload, source=f"fault schedule {path!s}")

    def describe(self) -> str:
        if not self.ops:
            return f"fault-schedule(seed={self.seed}, quiet)"
        return (f"fault-schedule(seed={self.seed}, "
                f"ops={','.join(sorted(self.ops))})")


_QUIET_SPEC = FaultSpec()


class _InjectionCounters:
    """Thread-safe tallies of what a wrapper actually injected, so tests
    can assert the weather happened instead of trusting probabilities."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {"errors": 0, "delays": 0,
                                        "cas_lost": 0, "truncated": 0}

    def bump(self, what: str) -> None:
        with self._lock:
            self._counts[what] += 1

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


class FaultyObjectStore(ObjectStore):
    """Decorate any :class:`ObjectStore` with a :class:`FaultSchedule`.

    Faults are injected strictly *before* the wrapped call: an injected
    error leaves the store untouched (so consumer retries are always
    safe), an injected CAS loss skips the swap entirely (indistinguishable
    from honestly losing the race), and an injected truncation drops a
    seeded tail from the true listing.  ``enabled`` can be flipped off to
    arrange state between storms; ``injected`` counts what actually fired.
    """

    def __init__(self, inner: ObjectStore, schedule: FaultSchedule,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.inner = inner
        self.schedule = schedule
        self.enabled = True
        self.injected = _InjectionCounters()
        self._sleep = sleep

    def _inject(self, op: str, key: str) -> FaultDecision:
        if not self.enabled:
            return _NO_FAULT
        decision = self.schedule.decide(op)
        if decision.delay_s > 0:
            self.injected.bump("delays")
            self._sleep(decision.delay_s)
        if decision.error:
            self.injected.bump("errors")
            raise TransientStoreError(
                f"{self.describe()}: injected transient fault "
                f"({op} on {key!r})")
        return decision

    def put_if_absent(self, key: str, data: bytes) -> bool:
        self._inject("put_if_absent", key)
        return self.inner.put_if_absent(key, data)

    def put_if_match(self, key: str, data: bytes, etag: str) -> bool:
        decision = self._inject("put_if_match", key)
        if decision.cas_lost:
            # Report the swap lost without attempting it: to the caller
            # this is exactly a competing writer winning first.
            self.injected.bump("cas_lost")
            sink = telemetry.default_sink()
            if sink:
                sink.emit(CasRetry(key=key, op="put_if_match"))
            return False
        return self.inner.put_if_match(key, data, etag)

    def get(self, key: str) -> Optional[StoredObject]:
        self._inject("get", key)
        return self.inner.get(key)

    def list_prefix(self, prefix: str) -> List[str]:
        decision = self._inject("list_prefix", prefix)
        keys = self.inner.list_prefix(prefix)
        if decision.truncate and keys:
            kept = int(len(keys) * decision.keep_fraction)
            self.injected.bump("truncated")
            return keys[:kept]
        return keys

    def delete(self, key: str) -> bool:
        self._inject("delete", key)
        return self.inner.delete(key)

    def describe(self) -> str:
        return f"faulty({self.inner.describe()})"
