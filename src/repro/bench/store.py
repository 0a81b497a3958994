"""A minimal object store with conditional writes, for cloud-shaped brokers.

:class:`~repro.bench.transport.ObjectStoreBroker` needs very little from a
storage service: blind reads, prefix listing, and two *conditional* writes —
create-if-absent and compare-and-swap on a version tag.  Every mainstream
object store offers exactly this (S3 ``If-None-Match``/``If-Match``, GCS
generation preconditions, Azure ETags), so the broker is written against the
five-method :class:`ObjectStore` interface and any backend implementing it
is deployable unchanged.

Two backends ship here:

:class:`InMemoryObjectStore`
    A dict behind a lock.  Used by tests and single-process runs; it is the
    semantic reference the conformance suite holds other backends to.
:class:`FileSystemObjectStore`
    A directory emulating the conditional-write semantics, so the whole
    object-store code path can be exercised (and even deployed, over shared
    storage) without any cloud dependency.  Each key is a subdirectory
    holding one ``value`` file: a fixed-width version header, then the
    payload; the etag is ``v<version>``.  Every write takes one store-wide
    lock (a process-wide thread lock, then ``flock`` on ``root/.lock``),
    compares the version, and :func:`os.replace`\\ s a fully written temp
    file onto ``value``; reads take no lock.  :meth:`delete` writes a
    header-only *tombstone* at the next version, so an etag read before a
    delete can never match the re-created key (no ABA).  POSIX-only: it
    needs :mod:`fcntl`.

Both backends refuse empty values: a header-only value file is how the
filesystem store marks a deleted key, so an empty object would be
indistinguishable from a deleted one.
"""

from __future__ import annotations

import fcntl
import math
import os
import random
import re
import threading
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Tuple, TypeVar,
                    Union)
from urllib.parse import quote, unquote

from repro.bench import telemetry
from repro.bench.observe import trace as tracectx
from repro.bench.shard import ShardError
from repro.bench.telemetry import CasRetry, StoreRetry

#: (value, etag) as returned by :meth:`ObjectStore.get`.
StoredObject = Tuple[bytes, str]

_T = TypeVar("_T")


class TransientStoreError(ShardError):
    """A storage operation failed in a way worth retrying.

    Raised for failures that say nothing about the *state* of the store —
    an injected chaos fault (:mod:`repro.bench.faults`), a cloud 5xx or
    throttle.  :class:`FileSystemObjectStore` never raises it (its reads
    cannot lose to a writer), but the contract still allows any backend
    to, so callers must not assume it away.  Consumers
    (``ObjectStoreBroker``, ``ShardWorker``) absorb these with
    :func:`call_with_retries`; everything else in the :class:`ShardError`
    family is a semantic error retrying cannot fix.
    """


class RetryBudgetExceeded(ShardError):
    """A retried operation kept failing past its :class:`RetryPolicy` budget.

    The message names the op, the key and the attempt count, so a give-up
    in a worker log or a CI failure is attributable without a debugger.
    """


class RetryPolicy:
    """Bounded exponential backoff with jitter for transient store faults.

    ``attempts`` is the total call budget (first try included).  Sleep
    before retry *n* (1-based) is ``min(cap, base * 2^(n-1))`` jittered
    into ``[0.5, 1.0)`` of nominal so a fleet of workers retrying the same
    blip doesn't re-hit the store in lock-step.  ``sleep`` is injectable
    (tests pass a no-op) and the jitter RNG is seeded, so a given policy
    instance produces a reproducible sleep schedule.
    """

    def __init__(self, attempts: int = 8, backoff_base_s: float = 0.02,
                 backoff_cap_s: float = 2.0,
                 sleep: Callable[[float], None] = time.sleep,
                 seed: object = 0) -> None:
        if not isinstance(attempts, int) or isinstance(attempts, bool) \
                or attempts < 1:
            raise ShardError(f"retry attempts must be an integer >= 1, "
                             f"got {attempts!r}")
        for label, value in (("backoff_base_s", backoff_base_s),
                             ("backoff_cap_s", backoff_cap_s)):
            if not math.isfinite(value) or value < 0:
                raise ShardError(f"retry {label} must be a finite number "
                                 f">= 0, got {value!r}")
        self.attempts = attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.sleep = sleep
        self._rng = random.Random(f"retry-jitter:{seed}")

    def backoff_s(self, attempt: int) -> float:
        """The jittered sleep after failed attempt ``attempt`` (1-based)."""
        nominal = min(self.backoff_cap_s,
                      self.backoff_base_s * (2.0 ** min(attempt - 1, 32)))
        return nominal * (0.5 + 0.5 * self._rng.random())


def call_with_retries(fn: Callable[[], _T], *, op: str, key: str,
                      policy: RetryPolicy) -> _T:
    """Run ``fn`` absorbing :class:`TransientStoreError` under ``policy``.

    Each absorbed failure emits a :class:`~repro.bench.telemetry.StoreRetry`
    (op/key/attempt) so chaos runs and real cloud blips are countable; when
    the budget is exhausted the last transient error is re-raised wrapped
    in a labeled :class:`RetryBudgetExceeded`.

    With a live sink each retry event is stamped as a leaf span under the
    ambient trace context (the post/collect span that issued the store
    op), carrying the failed attempt's duration — so a reconstructed
    trial timeline shows *where* the chaos bit, not just that it did.
    With the NullSink none of that runs: no clock read, no hash.
    """
    last: Optional[TransientStoreError] = None
    sink = telemetry.default_sink()
    for attempt in range(1, policy.attempts + 1):
        started = time.perf_counter() if sink else 0.0
        try:
            return fn()
        except TransientStoreError as error:
            last = error
            if sink:
                sink.emit(tracectx.leaf(
                    StoreRetry(op=op, key=key, attempt=attempt),
                    qualifier=f"{op}|{key}|{attempt}",
                    duration_s=time.perf_counter() - started))
            if attempt >= policy.attempts:
                break
            policy.sleep(policy.backoff_s(attempt))
    raise RetryBudgetExceeded(
        f"{op} on {key!r} still failing after {policy.attempts} "
        f"attempt(s); giving up: {last}") from last


class ObjectStore(ABC):
    """S3-style key/value storage with conditional writes.

    Keys are opaque UTF-8 strings (``/`` is an ordinary character with no
    directory semantics beyond prefix listing).  Etags are opaque version
    strings: any successful write changes the key's etag, and
    :meth:`put_if_match` succeeds only against the current one.
    """

    @abstractmethod
    def put_if_absent(self, key: str, data: bytes) -> bool:
        """Create ``key`` with ``data`` only if it does not exist.

        Returns ``True`` on creation, ``False`` if the key already exists
        (the store is unchanged).  Exactly one of any number of concurrent
        creators succeeds.
        """

    @abstractmethod
    def put_if_match(self, key: str, data: bytes, etag: str) -> bool:
        """Replace ``key``'s value only if its current etag is ``etag``.

        Returns ``True`` on the swap, ``False`` if the key was modified or
        deleted since ``etag`` was read (the store is unchanged).  Exactly
        one of any number of writers holding the same etag succeeds.
        """

    @abstractmethod
    def get(self, key: str) -> Optional[StoredObject]:
        """The current ``(data, etag)`` for ``key``, or ``None`` if absent."""

    @abstractmethod
    def list_prefix(self, prefix: str) -> List[str]:
        """All existing keys starting with ``prefix``, sorted."""

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key`` unconditionally; returns whether it existed."""

    @abstractmethod
    def describe(self) -> str:
        """A short human-readable location label for error messages."""


def _check_value(key: str, data: bytes) -> None:
    if not isinstance(data, bytes):
        raise ShardError(f"object {key!r}: stored values must be bytes, "
                         f"got {type(data).__name__}")
    if not data:
        raise ShardError(f"object {key!r}: stored values must be non-empty "
                         "(a header-only value file marks a deleted key)")


def _emit_cas_lost(key: str) -> None:
    """A conditional swap lost its race: the caller will re-read and retry
    (or, for a lease renewal, treat the lease as gone).  Counting these is
    how lease contention becomes visible in a run's telemetry."""
    sink = telemetry.default_sink()
    if sink:
        sink.emit(tracectx.leaf(CasRetry(key=key, op="put_if_match"),
                                qualifier=key))


class InMemoryObjectStore(ObjectStore):
    """The reference semantics over a dict; thread-safe, in-process only."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._objects: Dict[str, StoredObject] = {}
        self._version = 0

    def _next_etag(self) -> str:
        self._version += 1
        return f"v{self._version}"

    def put_if_absent(self, key: str, data: bytes) -> bool:
        _check_value(key, data)
        with self._lock:
            if key in self._objects:
                return False
            self._objects[key] = (bytes(data), self._next_etag())
            return True

    def put_if_match(self, key: str, data: bytes, etag: str) -> bool:
        _check_value(key, data)
        with self._lock:
            current = self._objects.get(key)
            if current is not None and current[1] == etag:
                self._objects[key] = (bytes(data), self._next_etag())
                return True
        _emit_cas_lost(key)
        return False

    def get(self, key: str) -> Optional[StoredObject]:
        with self._lock:
            return self._objects.get(key)

    def list_prefix(self, prefix: str) -> List[str]:
        with self._lock:
            return sorted(key for key in self._objects
                          if key.startswith(prefix))

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._objects.pop(key, None) is not None

    def describe(self) -> str:
        return "memory-store"


#: A value file is the key's version as this many ASCII digits, a newline,
#: then the payload; a header-only file is a tombstone (a deleted key).
_VERSION_DIGITS = 20
_HEADER_BYTES = _VERSION_DIGITS + 1

#: Etags are ``v`` + the version, as :class:`InMemoryObjectStore`'s are.
_ETAG_RE = re.compile(r"v\d+", re.ASCII)

#: Serializes this process's writers.  ``flock`` alone is not enough: over
#: NFS, Linux emulates it with POSIX record locks, which belong to the
#: process and so do not exclude its threads from one another.
_WRITE_LOCK = threading.Lock()

# A fork must land between writes: a child forked mid-write would inherit
# a held _WRITE_LOCK, and its copy of the lock file's descriptor would keep
# the flock held until the child exits.
os.register_at_fork(before=_WRITE_LOCK.acquire,
                    after_in_parent=_WRITE_LOCK.release,
                    after_in_child=_WRITE_LOCK.release)


class FileSystemObjectStore(ObjectStore):
    """Conditional-write semantics over a plain directory.

    Layout::

        root/.lock                     the store's write lock
        root/.tmp                      the one write in progress, if any
        root/p<parent>/k<leaf>/value   the key's version header + payload

    A key splits after its last ``/``: ``<parent>`` is everything up to and
    including that slash (empty for a key without one) and ``<leaf>`` the
    rest, both URL-quoted with no safe characters.  Keeping the slash in
    the bucket name keeps ``y`` and ``/y`` apart.  Every key sharing a
    parent lives in one bucket directory, so :meth:`list_prefix` opens only
    the buckets that can hold matching keys instead of walking every key
    in the store.  Only :meth:`_key_dir` and :meth:`list_prefix` know this
    layout.

    Every write — :meth:`put_if_absent`, :meth:`put_if_match` and
    :meth:`delete` — holds one store-wide lock: the process-wide
    :data:`_WRITE_LOCK`, then ``fcntl.flock`` on ``root/.lock`` to exclude
    other processes.  Under it the write reads the key's version, compares,
    writes ``root/.tmp`` and :func:`os.replace`\\ s it onto ``value``.  The
    replace is atomic, so a reader (one read, no lock) sees the old file or
    the new one, never a torn write.

    The etag is ``v<version>`` and every write bumps the version.  A delete
    writes a header-only *tombstone* at the next version, so a re-created
    key continues the count and an etag read before the delete never
    matches again (no ABA).

    The store is POSIX-only (``fcntl``); shared storage must honour
    ``flock`` across hosts (NFSv4 on Linux does).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock_path = self.root / ".lock"
        self._tmp = self.root / ".tmp"

    def _key_dir(self, key: str) -> Path:
        if not key:
            raise ShardError(f"{self.describe()}: object keys must be "
                             "non-empty")
        parent, slash, leaf = key.rpartition("/")
        return (self.root / ("p" + quote(parent + slash, safe=""))
                / ("k" + quote(leaf, safe="")))

    def _read(self, key: str, value: Path) -> Tuple[int, bytes]:
        """``(version, payload)``; an empty payload means the key is absent
        (version 0: it was never written)."""
        try:
            raw = value.read_bytes()
        except FileNotFoundError:
            return 0, b""
        header = raw[:_VERSION_DIGITS]
        if (len(raw) < _HEADER_BYTES or not header.isdigit()
                or raw[_VERSION_DIGITS:_HEADER_BYTES] != b"\n"):
            raise ShardError(f"{self.describe()}: object {key!r} has a "
                             "corrupt value file (unreadable version "
                             "header: torn write or bit rot)")
        return int(header), raw[_HEADER_BYTES:]

    @contextmanager
    def _locked(self) -> Iterator[None]:
        with _WRITE_LOCK:
            fd = os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                yield
            finally:
                os.close(fd)  # releases the flock

    def _write(self, value: Path, version: int, data: bytes) -> None:
        """Replace ``value`` with ``data`` at ``version``; under the lock."""
        if version == 1:
            value.parent.mkdir(parents=True, exist_ok=True)
        self._tmp.write_bytes(b"%0*d\n" % (_VERSION_DIGITS, version) + data)
        os.replace(self._tmp, value)

    # ------------------------------------------------------------------
    # the store contract
    # ------------------------------------------------------------------
    def put_if_absent(self, key: str, data: bytes) -> bool:
        _check_value(key, data)
        value = self._key_dir(key) / "value"
        with self._locked():
            version, payload = self._read(key, value)
            if payload:
                return False
            self._write(value, version + 1, data)
            return True

    def put_if_match(self, key: str, data: bytes, etag: str) -> bool:
        _check_value(key, data)
        if not _ETAG_RE.fullmatch(etag):
            raise ShardError(f"object {key!r}: malformed etag {etag!r} "
                             "(expected v<version>)")
        value = self._key_dir(key) / "value"
        with self._locked():
            version, payload = self._read(key, value)
            swapped = bool(payload) and f"v{version}" == etag
            if swapped:
                self._write(value, version + 1, data)
        if not swapped:
            _emit_cas_lost(key)
        return swapped

    def get(self, key: str) -> Optional[StoredObject]:
        version, payload = self._read(key, self._key_dir(key) / "value")
        return (payload, f"v{version}") if payload else None

    def list_prefix(self, prefix: str) -> List[str]:
        keys = []
        try:
            buckets = [name for name in os.listdir(self.root)
                       if name.startswith("p")]
        except FileNotFoundError:
            return []
        for bucket in buckets:
            parent = unquote(bucket[1:])
            # A bucket can hold a match only when one of parent and prefix
            # extends the other; every other bucket is never opened.
            if not (parent.startswith(prefix) or prefix.startswith(parent)):
                continue
            try:
                leaves = os.listdir(self.root / bucket)
            except (FileNotFoundError, NotADirectoryError):
                continue  # removed meanwhile, or a foreign file in root
            for leaf in leaves:
                if not leaf.startswith("k"):
                    continue
                key = parent + unquote(leaf[1:])
                if not key.startswith(prefix):
                    continue
                try:
                    size = os.stat(self.root / bucket / leaf / "value").st_size
                except (FileNotFoundError, NotADirectoryError):
                    # Removed since the bucket scan (external cleanup), or
                    # a foreign file: absent, and the listing stands.
                    continue
                if size > _HEADER_BYTES:  # header-only: a tombstone
                    keys.append(key)
        return sorted(keys)

    def delete(self, key: str) -> bool:
        value = self._key_dir(key) / "value"
        with self._locked():
            version, payload = self._read(key, value)
            if not payload:
                return False
            self._write(value, version + 1, b"")
            return True

    def describe(self) -> str:
        return str(self.root)
