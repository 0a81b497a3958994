"""Content-addressed on-disk cache for offline navigation models.

The paper calls the offline navigation model "version-specific but
machine-independent" (§5.2): for a given application build and ripper
configuration the UNG never changes, so re-ripping it for every benchmark
run — or once per worker process in a parallel run — is pure waste.

:class:`ArtifactCache` persists the UNG (plus the original rip report) via
:mod:`repro.topology.persistence` under a key derived from

* the application name,
* the application build version (``Application.APP_VERSION``), so a rebuilt
  app never serves the previous build's model,
* a fingerprint of the ripper configuration (the only knobs that change
  what the rip observes), and
* the persistence :data:`~repro.topology.persistence.FORMAT_VERSION`,

so stale entries are never served across app, config or format changes — a
new key simply misses and rebuilds.  Only the UNG is stored; forest, core
view and query engine are rebuilt deterministically on load
(:func:`repro.dmi.interface.rebuild_offline_artifacts`), which keeps cached
runs byte-identical to cold runs even when the *serialization* knobs differ
from the ones the cache entry was written under.

Recency and garbage collection
------------------------------
Entry recency ("when was this last served?") is recorded explicitly in a
sidecar index (``.recency-index.json``, nanosecond timestamps) rather than
through file mtimes: several mainstream filesystems round mtimes to a
second or worse, which made the PR 5 mtime-LRU eviction order
non-deterministic when entries were touched within the same tick.  The
mtime is still refreshed best-effort as a fallback ordering key for entries
a foreign writer added without updating the index.

Beyond the ``max_entries`` LRU bound, :meth:`ArtifactCache.gc` sweeps the
directory against an age bound and/or a total-byte budget (oldest-first
eviction until the budget holds), emitting a ``cache_gc`` telemetry event
so sweeps are visible in the run registry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.apps import app_factory
from repro.apps.base import Application
from repro.bench import telemetry
from repro.bench.observe import trace as tracectx
from repro.dmi.interface import (
    DMIConfig,
    OfflineArtifacts,
    build_offline_artifacts,
    rebuild_offline_artifacts,
)
from repro.topology.persistence import FORMAT_VERSION, load_model, save_ung

#: Sidecar recency index file name.  Dot-prefixed and filtered explicitly so
#: it is never mistaken for a cache entry.
INDEX_NAME = ".recency-index.json"


def config_fingerprint(config: DMIConfig, app_version: str = "") -> str:
    """Hex digest identifying the rip-relevant part of a DMI configuration.

    ``app_version`` (the application build's ``APP_VERSION``) is folded in
    when provided, so a rebuilt application addresses a fresh cache slot.
    It is folded in *only* when non-empty: versionless digests (the PR 5
    scheme) stay stable, which keeps registry config keys comparable across
    the transition.
    """
    payload: Dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "ripper": dataclasses.asdict(config.ripper),
    }
    if app_version:
        payload["app_version"] = app_version
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def app_version_for(app_name: str,
                    factory: Optional[Callable[[], Application]] = None) -> str:
    """The build version the cache key should carry for ``app_name``.

    Resolved from the factory's (class's) ``APP_VERSION`` without
    instantiating the application.  Unknown app names (ad-hoc factories in
    tests, foreign tools) resolve to "" — a versionless legacy key.
    """
    source = factory
    if source is None:
        try:
            source = app_factory(app_name)
        except KeyError:
            source = None
    return str(getattr(source, "APP_VERSION", "") or "")


class ArtifactCache:
    """Loads offline artefacts from disk, building (and storing) on miss.

    ``max_entries`` bounds the cache directory (LRU by last-*load* time:
    every served hit stamps its entry in the recency index, and after each
    insert the oldest entries beyond the bound are evicted), so long-lived
    workers cycling through many app×config fingerprints don't grow the
    directory without limit.  Hits, misses and evictions are counted on the
    instance and emitted as telemetry events to the process-wide sink
    (:func:`repro.bench.telemetry.default_sink`).
    """

    def __init__(self, cache_dir: Union[str, Path],
                 config: Optional[DMIConfig] = None, *,
                 max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.cache_dir = Path(cache_dir)
        self.config = config or DMIConfig()
        self.max_entries = max_entries
        #: Entries served from disk without ripping.
        self.hits = 0
        #: Entries that required a fresh offline build.
        self.misses = 0
        #: Entries removed by the ``max_entries`` LRU bound or by ``gc()``.
        self.evictions = 0

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def path_for(self, app_name: str,
                 app_version: Optional[str] = None) -> Path:
        if app_version is None:
            app_version = app_version_for(app_name)
        fingerprint = config_fingerprint(self.config, app_version=app_version)
        return self.cache_dir / f"{app_name}-{fingerprint}.json"

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------
    def get(self, app_name: str,
            app_version: Optional[str] = None) -> Optional[OfflineArtifacts]:
        """Return cached artefacts for ``app_name``, or None on miss.

        Unreadable or format-incompatible entries are treated as misses (the
        caller rebuilds and overwrites them) rather than raised, so a cache
        directory can survive format bumps.
        """
        path = self.path_for(app_name, app_version)
        if not path.exists():
            return None
        try:
            ung, report = load_model(path)
        except (ValueError, KeyError, json.JSONDecodeError, OSError):
            return None
        return rebuild_offline_artifacts(ung, self.config, rip_report=report)

    def store(self, app_name: str, artifacts: OfflineArtifacts,
              app_version: Optional[str] = None) -> Path:
        """Persist already-built artefacts (only the UNG + rip report).

        Inserting may push the directory over ``max_entries``; the oldest
        entries (by last-load time) are evicted right after the insert, so
        the bound holds between calls.
        """
        path = save_ung(artifacts.ung, self.path_for(app_name, app_version),
                        report=artifacts.rip_report)
        self._touch(path)
        self._evict_over_limit(keep=path)
        return path

    # ------------------------------------------------------------------
    # the main entry point
    # ------------------------------------------------------------------
    def load_or_build(self, app_name: str,
                      factory: Optional[Callable[[], Application]] = None
                      ) -> OfflineArtifacts:
        """Return artefacts for ``app_name``, ripping only on a cold cache."""
        sink = telemetry.default_sink()
        loading = time.perf_counter() if sink else 0.0
        version = app_version_for(app_name, factory)
        cached = self.get(app_name, app_version=version)
        if cached is not None:
            self.hits += 1
            self._touch(self.path_for(app_name, app_version=version))
            if sink:
                sink.emit(tracectx.leaf(
                    telemetry.CacheHit(app=app_name), qualifier=app_name,
                    duration_s=time.perf_counter() - loading))
            return cached
        self.misses += 1
        if sink:
            sink.emit(tracectx.leaf(
                telemetry.CacheMiss(app=app_name), qualifier=app_name))
        factory = factory or app_factory(app_name)
        artifacts = build_offline_artifacts(factory(), self.config)
        self.store(app_name, artifacts, app_version=version)
        return artifacts

    # ------------------------------------------------------------------
    # the sidecar recency index
    # ------------------------------------------------------------------
    def _index_path(self) -> Path:
        return self.cache_dir / INDEX_NAME

    def _load_index(self) -> Dict[str, int]:
        try:
            payload = json.loads(self._index_path().read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, ValueError):
            return {}
        if not isinstance(payload, dict):
            return {}
        return {name: stamp for name, stamp in payload.items()
                if isinstance(name, str) and isinstance(stamp, int)}

    def _save_index(self, index: Dict[str, int]) -> None:
        # Atomic replace; last-writer-wins under concurrency, which is fine
        # for a recency hint (the mtime fallback still orders strays).
        tmp = self._index_path().with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(index, sort_keys=True), encoding="utf-8")
            os.replace(tmp, self._index_path())
        except OSError:
            pass

    def _touch(self, path: Path) -> None:
        """Stamp an entry's last-load time (ns) in the recency index."""
        index = self._load_index()
        index[path.name] = time.time_ns()
        self._save_index(index)
        try:
            os.utime(path)   # best-effort fallback key for foreign readers
        except OSError:
            pass

    def _forget(self, index: Dict[str, int], name: str) -> None:
        index.pop(name, None)

    def _entries_oldest_first(self) -> List[Path]:
        return [path for _, _, path in self._aged_entries()]

    def _aged_entries(self) -> List[Tuple[int, str, Path]]:
        """Entries as (recency_ns, name, path), oldest first.

        Recency comes from the sidecar index; entries missing from it (e.g.
        written by an older version of this class) fall back to their mtime
        in nanoseconds — comparable units, deterministic tie-break on name.
        """
        index = self._load_index()
        aged = []
        for path in self.cache_dir.glob("*.json"):
            if path.name.startswith("."):
                continue
            try:
                mtime_ns = path.stat().st_mtime_ns
            except OSError:
                continue  # deleted under us
            aged.append((index.get(path.name, mtime_ns), path.name, path))
        return sorted(aged)

    def _evict_entry(self, path: Path) -> int:
        """Unlink one entry; returns its reclaimed size (0 if it raced away
        or could not be removed)."""
        try:
            size = path.stat().st_size
            path.unlink()
        except FileNotFoundError:
            return 0
        except OSError:
            return 0
        self.evictions += 1
        sink = telemetry.default_sink()
        if sink:
            sink.emit(tracectx.leaf(telemetry.CacheEvicted(entry=path.name),
                                    qualifier=path.name))
        return size

    def _evict_over_limit(self, keep: Path) -> None:
        if self.max_entries is None:
            return
        entries = self._entries_oldest_first()
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        index = self._load_index()
        for victim in entries:
            if excess <= 0:
                break
            if victim == keep:
                continue  # never evict the entry just inserted/served
            try:
                victim.unlink()
            except FileNotFoundError:
                excess -= 1  # already gone: the directory shrank without us
                self._forget(index, victim.name)
                continue
            except OSError:
                continue  # unreadable entry; try the next victim
            excess -= 1
            self.evictions += 1
            self._forget(index, victim.name)
            sink = telemetry.default_sink()
            if sink:
                sink.emit(tracectx.leaf(
                    telemetry.CacheEvicted(entry=victim.name),
                    qualifier=victim.name))
        self._save_index(index)

    # ------------------------------------------------------------------
    # garbage collection (age + size bounds)
    # ------------------------------------------------------------------
    def gc(self, *, max_age_s: Optional[float] = None,
           max_total_bytes: Optional[int] = None) -> Dict[str, object]:
        """Sweep the directory against an age and/or total-size budget.

        ``max_age_s``
            Evict every entry whose last load is older than this many
            seconds (by the recency index, mtime fallback).
        ``max_total_bytes``
            After the age pass, evict oldest-first until the summed entry
            sizes fit the budget.

        Returns a stats dict (``evicted``, ``reclaimed_bytes``,
        ``remaining_entries``, ``remaining_bytes``) and emits one
        ``cache_gc`` telemetry event.  With neither bound given, the sweep
        is a no-op inventory pass.
        """
        started = time.perf_counter()
        now_ns = time.time_ns()
        index = self._load_index()
        evicted = 0
        reclaimed = 0
        survivors: List[Tuple[int, str, Path, int]] = []
        for recency_ns, name, path in self._aged_entries():
            try:
                size = path.stat().st_size
            except OSError:
                self._forget(index, name)
                continue
            age_s = max(0.0, (now_ns - recency_ns) / 1e9)
            if max_age_s is not None and age_s > max_age_s:
                freed = self._evict_entry(path)
                if freed or not path.exists():
                    evicted += 1
                    reclaimed += freed
                    self._forget(index, name)
                continue
            survivors.append((recency_ns, name, path, size))
        if max_total_bytes is not None:
            total = sum(size for _, _, _, size in survivors)
            for recency_ns, name, path, size in list(survivors):
                if total <= max_total_bytes:
                    break
                freed = self._evict_entry(path)
                if freed or not path.exists():
                    evicted += 1
                    reclaimed += freed
                    total -= size
                    self._forget(index, name)
                    survivors.remove((recency_ns, name, path, size))
        self._save_index(index)
        remaining = [(name, size) for _, name, _, size in survivors]
        stats: Dict[str, object] = {
            "evicted": evicted,
            "reclaimed_bytes": reclaimed,
            "remaining_entries": len(remaining),
            "remaining_bytes": sum(size for _, size in remaining),
            "max_age_s": max_age_s,
            "max_total_bytes": max_total_bytes,
        }
        seconds = time.perf_counter() - started
        sink = telemetry.default_sink()
        if sink:
            sink.emit(tracectx.leaf(telemetry.CacheGc(
                evicted=evicted, reclaimed_bytes=reclaimed,
                remaining_entries=len(remaining),
                remaining_bytes=int(stats["remaining_bytes"]),
                seconds=seconds), duration_s=seconds))
        return stats

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def inventory(self) -> List[Dict[str, object]]:
        """Per-entry view (oldest first): name, size, last-load age."""
        now_ns = time.time_ns()
        rows = []
        for recency_ns, name, path in self._aged_entries():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            rows.append({"entry": name, "bytes": size,
                         "age_s": max(0.0, (now_ns - recency_ns) / 1e9)})
        return rows

    def stats(self) -> Dict[str, object]:
        return {"cache_dir": str(self.cache_dir), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "max_entries": self.max_entries}
