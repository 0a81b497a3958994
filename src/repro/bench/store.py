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
    holding immutable *generation* files; the current value is the highest
    generation and the etag is that generation's file name.  A CAS from
    generation *n* creates generation *n+1* with :func:`os.link` — atomic,
    so exactly one of any number of racing writers succeeds.  Superseded
    generation files are truncated but kept for a window (their *names*
    are what make stale CAS attempts fail), then pruned behind an
    atomically advanced floor marker so hot keys (lease heartbeats) don't
    grow without bound.  :meth:`delete` links an empty *tombstone*
    generation instead of removing files, so the generation lineage — and
    with it etag freshness — survives delete + recreate: an etag read
    before a delete can never match again (no ABA).

Both backends refuse empty values: zero bytes is how a truncated generation
file marks itself superseded and how a tombstone marks a deleted key, so an
empty object would be indistinguishable from both.
"""

from __future__ import annotations

import math
import os
import random
import re
import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union
from urllib.parse import quote, unquote

from repro.bench import telemetry
from repro.bench.shard import ShardError
from repro.bench.telemetry import CasRetry, EventSink, StoreRetry

#: (value, etag) as returned by :meth:`ObjectStore.get`.
StoredObject = Tuple[bytes, str]

_T = TypeVar("_T")


class TransientStoreError(ShardError):
    """A storage operation failed in a way worth retrying.

    Raised for failures that say nothing about the *state* of the store —
    an injected chaos fault (:mod:`repro.bench.faults`), a cloud 5xx or
    throttle, a :class:`FileSystemObjectStore` read that kept losing to
    concurrent writers.  Consumers (``ObjectStoreBroker``, ``ShardWorker``)
    absorb these with :func:`call_with_retries`; everything else in the
    :class:`ShardError` family is a semantic error retrying cannot fix.
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
    blip doesn't re-hit the store in lock-step.  ``sleep`` is injectable —
    workers pass their stop-event wait so shutdown interrupts a backoff,
    tests pass a no-op — and the jitter RNG is seeded, so a given policy
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
                      policy: RetryPolicy,
                      sink: Optional[EventSink] = None) -> _T:
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
    resolved = telemetry.resolve(sink)
    for attempt in range(1, policy.attempts + 1):
        started = time.perf_counter() if resolved else 0.0
        try:
            return fn()
        except TransientStoreError as error:
            last = error
            if resolved:
                from repro.bench.observe import trace as _trace
                resolved.emit(_trace.leaf(
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
                         "(zero bytes marks a superseded generation)")


def _emit_cas_lost(sink: Optional[EventSink], key: str) -> None:
    """A conditional swap lost its race: the caller will re-read and retry
    (or, for a lease renewal, treat the lease as gone).  Counting these is
    how lease contention becomes visible in a run's telemetry."""
    resolved = telemetry.resolve(sink)
    if resolved:
        from repro.bench.observe import trace as _trace
        resolved.emit(_trace.leaf(CasRetry(key=key, op="put_if_match"),
                                  qualifier=key))


class InMemoryObjectStore(ObjectStore):
    """The reference semantics over a dict; thread-safe, in-process only."""

    def __init__(self, sink: Optional[EventSink] = None) -> None:
        self.sink = sink
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
        _emit_cas_lost(self.sink, key)
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


#: Generation file names: ``g`` + zero-padded generation number.
_GENERATION_RE = re.compile(r"^g(\d{10})$")

#: Floor marker names: ``f`` + the lowest generation whose file is
#: guaranteed to still exist (everything below it may be pruned).
_FLOOR_RE = re.compile(r"^f(\d{10})$")

#: Superseded generations kept behind the current one before pruning; the
#: prune itself triggers only once twice this many accumulate, so the cost
#: is amortized.
_PRUNE_KEEP = 16


class FileSystemObjectStore(ObjectStore):
    """Conditional-write semantics over a plain directory.

    Layout::

        root/p<parent>/k<leaf>/g0000000000   generation files; the current
        root/p<parent>/k<leaf>/g0000000001   value is the highest
        ...                                  generation, its file name is
                                             the etag

    A key splits after its last ``/``: ``<parent>`` is everything up to and
    including that slash (empty for a key without one) and ``<leaf>`` the
    rest, both URL-quoted with no safe characters.  Keeping the slash in
    the bucket name keeps ``y`` and ``/y`` apart.  Every key sharing a
    parent lives in one bucket directory, so :meth:`list_prefix` opens only
    the buckets that can hold matching keys instead of walking every key
    in the store.  Only :meth:`_key_dir` and :meth:`list_prefix` know this
    layout.

    New generations are materialized with :func:`os.link` from a fully
    written temp file — creation is atomic and exclusive, so concurrent CAS
    writers race safely even over NFS.  Superseded generations are
    truncated, not immediately unlinked: a stale writer holding etag
    ``g…n`` finds ``g…n+1`` already present and fails.

    That alone would grow hot keys (a heartbeat-renewed lease object) one
    file per write forever, so old generations are pruned behind a *floor*:
    an ``f<generation>`` marker file whose creation strictly precedes any
    unlink below it, and whose value only advances (the highest marker
    wins, and the highest is never removed).  A CAS whose target file was
    pruned away can therefore link "successfully", but it re-reads the
    floor after linking — if its new generation is at or below the floor,
    its lineage was pruned: it undoes the link and reports the swap lost.
    Honest writers always land :data:`_PRUNE_KEEP` generations above the
    floor, so only genuinely stale writers take that path.

    Readers double-check the listing after reading: if a newer generation
    appeared meanwhile, the read retries, so a read never returns a
    generation that was truncated under it (pruning never touches the
    highest generation).

    :meth:`delete` is a write like any other: it links an empty *tombstone*
    as the next generation (so delete-vs-CAS races collide on the same
    file name and exactly one wins), and :meth:`put_if_absent` on a
    tombstoned key continues the lineage at the next generation.  The one
    live invariant: the highest generation is non-empty exactly when the
    key exists.
    """

    #: A read retries this many times against concurrent writers before
    #: giving up; in practice one retry is already rare.  Exhaustion (a
    #: key under genuine CAS-storm churn) raises
    #: :class:`TransientStoreError` — the caller's retry-with-backoff
    #: layer, not the read loop, decides when to give up for real.
    READ_ATTEMPTS = 8

    def __init__(self, root: Union[str, Path],
                 sink: Optional[EventSink] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.sink = sink
        self._tmp_counter = 0
        self._tmp_lock = threading.Lock()

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------
    def _key_dir(self, key: str) -> Path:
        if not key:
            raise ShardError(f"{self.describe()}: object keys must be "
                             "non-empty")
        parent, slash, leaf = key.rpartition("/")
        return (self.root / ("p" + quote(parent + slash, safe=""))
                / ("k" + quote(leaf, safe="")))

    @staticmethod
    def _generation_name(generation: int) -> str:
        return f"g{generation:010d}"

    @staticmethod
    def _parse_etag(key: str, etag: str) -> int:
        match = _GENERATION_RE.match(etag)
        if match is None:
            raise ShardError(f"object {key!r}: malformed etag {etag!r} "
                             "(expected g<generation>)")
        return int(match.group(1))

    def _generations(self, key_dir: Path) -> List[Path]:
        try:
            entries = [path for path in key_dir.iterdir()
                       if _GENERATION_RE.match(path.name)]
        except FileNotFoundError:
            return []
        return sorted(entries)

    def _floor(self, key_dir: Path) -> int:
        """The pruning floor: generations below this may no longer exist."""
        try:
            markers = [_FLOOR_RE.match(path.name)
                       for path in key_dir.iterdir()]
        except FileNotFoundError:
            return 0
        return max((int(match.group(1)) for match in markers if match),
                   default=0)

    def _maybe_prune(self, key_dir: Path, top: int) -> None:
        """Advance the floor to ``top - _PRUNE_KEEP`` and drop older files.

        Order matters: the new floor marker is created *before* anything is
        unlinked, so any writer that manages to link into pruned territory
        is guaranteed to see the advanced floor when it re-checks.
        """
        new_floor = top - _PRUNE_KEEP
        marker = key_dir / f"f{new_floor:010d}"
        try:
            with open(marker, "x"):
                pass
        except FileExistsError:
            pass  # another pruner placed this floor already
        except FileNotFoundError:
            return  # the key was deleted concurrently
        for path in self._generations(key_dir):
            if int(path.name[1:]) < new_floor:
                path.unlink(missing_ok=True)
        # Drop superseded floor markers, keeping the highest (the floor
        # a concurrent reader computes only ever advances).
        try:
            markers = sorted(path.name for path in key_dir.iterdir()
                             if _FLOOR_RE.match(path.name))
        except FileNotFoundError:
            return
        for name in markers[:-1]:
            (key_dir / name).unlink(missing_ok=True)

    def _tmp_path(self, key_dir: Path) -> Path:
        with self._tmp_lock:
            self._tmp_counter += 1
            counter = self._tmp_counter
        return key_dir / (f".tmp.{os.getpid()}."
                          f"{threading.get_ident()}.{counter}")

    def _link_generation(self, key_dir: Path, generation: int,
                         data: bytes) -> bool:
        """Atomically materialize one generation; ``False`` if it exists."""
        key_dir.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_path(key_dir)
        tmp.write_bytes(data)
        try:
            os.link(tmp, key_dir / self._generation_name(generation))
            return True
        except FileExistsError:
            return False
        finally:
            tmp.unlink(missing_ok=True)

    @staticmethod
    def _is_live(path: Path) -> Optional[bool]:
        """Whether a generation file holds a value (``None``: it vanished)."""
        try:
            return path.stat().st_size > 0
        except FileNotFoundError:
            return None

    def _prune_if_due(self, key_dir: Path, top: int) -> None:
        if top - self._floor(key_dir) > 2 * _PRUNE_KEEP:
            self._maybe_prune(key_dir, top)

    # ------------------------------------------------------------------
    # the store contract
    # ------------------------------------------------------------------
    def put_if_absent(self, key: str, data: bytes) -> bool:
        _check_value(key, data)
        key_dir = self._key_dir(key)
        generations = self._generations(key_dir)
        if not generations:
            return self._link_generation(key_dir, 0, data)
        if self._is_live(generations[-1]) is not False:
            return False  # the key exists (or racing writers are active)
        # A tombstone: the key was deleted.  Continue its lineage at the
        # next generation so pre-delete etags can never match again.
        reborn = int(generations[-1].name[1:]) + 1
        if not self._link_generation(key_dir, reborn, data):
            return False  # a racing creator (or deleter) got there first
        self._prune_if_due(key_dir, reborn)
        return True

    def put_if_match(self, key: str, data: bytes, etag: str) -> bool:
        swapped = self._put_if_match(key, data, etag)
        if not swapped:
            _emit_cas_lost(self.sink, key)
        return swapped

    def _put_if_match(self, key: str, data: bytes, etag: str) -> bool:
        _check_value(key, data)
        generation = self._parse_etag(key, etag)
        key_dir = self._key_dir(key)
        if generation < self._floor(key_dir):
            return False  # pruned ancestry: this etag lost long ago
        current = key_dir / self._generation_name(generation)
        if not self._is_live(current):
            # Absent: the etag never existed or was pruned.  Empty: either
            # a superseded (truncated) generation or a tombstone — a
            # deleted key cannot be swapped, only re-created.
            return False
        if not self._link_generation(key_dir, generation + 1, data):
            return False  # a competing writer swapped first
        if generation + 1 <= self._floor(key_dir):
            # The target file only "linked" because pruning removed it; a
            # newer lineage exists above the floor.  Undo and report lost.
            (key_dir / self._generation_name(generation + 1)).unlink(
                missing_ok=True)
            return False
        # Truncate (not unlink) the superseded generation: its file name
        # must survive until the floor passes it, so writers holding
        # not-yet-pruned older etags keep failing honestly.
        try:
            os.truncate(current, 0)
        except FileNotFoundError:
            pass  # pruning passed it already
        self._prune_if_due(key_dir, generation + 1)
        return True

    def get(self, key: str) -> Optional[StoredObject]:
        key_dir = self._key_dir(key)
        for _ in range(self.READ_ATTEMPTS):
            generations = self._generations(key_dir)
            if not generations:
                return None
            current = generations[-1]
            try:
                data = current.read_bytes()
            except FileNotFoundError:
                continue  # lost a race with a pruner; re-list
            after = self._generations(key_dir)
            if after and after[-1].name == current.name:
                # An empty current generation is a tombstone: deleted.
                return (data, current.name) if data else None
            # A newer generation landed while we read (our bytes may be a
            # torn truncation) — retry against the fresh listing.
        raise TransientStoreError(
            f"{self.describe()}: object {key!r} kept changing across "
            f"{self.READ_ATTEMPTS} read attempts")

    def _key_exists(self, key: str, key_dir: Path) -> bool:
        """Whether the key's highest generation holds a value, with the
        same stable-read retry as :meth:`get`: a concurrent CAS may
        truncate the generation we just statted, so only a verdict whose
        generation is still the highest afterwards counts."""
        for _ in range(self.READ_ATTEMPTS):
            generations = self._generations(key_dir)
            if not generations:
                return False
            current = generations[-1]
            live = self._is_live(current)
            after = self._generations(key_dir)
            if after and after[-1].name == current.name:
                return bool(live)
            # A newer generation landed while we statted; re-examine.
        raise TransientStoreError(
            f"{self.describe()}: object {key!r} kept changing across "
            f"{self.READ_ATTEMPTS} read attempts")

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
                    exists = self._key_exists(key,
                                              self.root / bucket / leaf)
                except FileNotFoundError:
                    # The key directory vanished between the bucket scan
                    # and the per-entry stat (a concurrent pruner or
                    # external cleanup): the key is gone, not the listing
                    # — skip the entry instead of aborting every other
                    # key's result.
                    continue
                if exists:
                    keys.append(key)
        return sorted(keys)

    def delete(self, key: str) -> bool:
        key_dir = self._key_dir(key)
        for _ in range(self.READ_ATTEMPTS):
            generations = self._generations(key_dir)
            if not generations:
                return False
            current = generations[-1]
            live = self._is_live(current)
            if live is None:
                continue  # lost a race with a pruner; re-list
            if not live:
                return False  # already a tombstone
            # Delete is a write: link the tombstone as the next generation,
            # so a racing CAS and a racing delete collide on one file name
            # and exactly one of them wins.
            if self._link_generation(key_dir, int(current.name[1:]) + 1,
                                     b""):
                try:
                    os.truncate(current, 0)
                except FileNotFoundError:
                    pass
                return True
            # A writer beat us to the next generation; re-examine.
        raise TransientStoreError(
            f"{self.describe()}: object {key!r} kept changing across "
            f"{self.READ_ATTEMPTS} delete attempts")

    def describe(self) -> str:
        return str(self.root)
