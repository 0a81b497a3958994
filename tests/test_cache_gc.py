"""Tests for the version-aware ArtifactCache and its garbage collector.

PR 6 satellites: the app-version-aware ``config_fingerprint`` (a rebuilt
application never serves a stale cached model), the explicit
nanosecond-resolution recency index (deterministic LRU on filesystems with
coarse mtimes), the age/size-bounded ``gc()`` sweep with its telemetry, and
the ``repro cache stats``/``gc`` CLI.
"""

import json
import os

import pytest

from repro.bench.telemetry import AggregatingSink, use_sink
from repro.cli import main
from repro.dmi.cache import (
    INDEX_NAME,
    ArtifactCache,
    app_version_for,
    config_fingerprint,
)
from repro.dmi.interface import DMIConfig


# ----------------------------------------------------------------------
# version-aware fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_without_version_matches_legacy_digest():
    config = DMIConfig()
    assert config_fingerprint(config) == config_fingerprint(config,
                                                            app_version="")


def test_fingerprint_folds_app_version_in():
    config = DMIConfig()
    v1 = config_fingerprint(config, app_version="1.0")
    v2 = config_fingerprint(config, app_version="2.0")
    legacy = config_fingerprint(config)
    assert len({v1, v2, legacy}) == 3


def test_app_version_resolution(mini_app):
    MiniApp = type(mini_app)
    assert app_version_for("word") == "1.0"
    assert app_version_for("no-such-app") == ""
    assert app_version_for("anything", factory=MiniApp) == "1.0"

    class Rebuilt(MiniApp):
        APP_VERSION = "2.0"

    assert app_version_for("anything", factory=Rebuilt) == "2.0"


def test_rebuilt_app_version_addresses_a_fresh_cache_slot(tmp_path, mini_app):
    """Bumping APP_VERSION must miss the old entry and rebuild, never serve
    the previous build's model."""
    MiniApp = type(mini_app)

    class RebuiltMini(MiniApp):
        APP_VERSION = "2.0"

    cache = ArtifactCache(tmp_path / "cache")
    cache.load_or_build("mini", factory=MiniApp)
    assert cache.misses == 1
    # Same name, same config — but a new build version: cold again.
    cache.load_or_build("mini", factory=RebuiltMini)
    assert cache.misses == 2 and cache.hits == 0
    # Both builds now coexist under distinct version-aware keys.
    assert cache.path_for("mini", app_version="1.0").exists()
    assert cache.path_for("mini", app_version="2.0").exists()
    cache.load_or_build("mini", factory=MiniApp)
    cache.load_or_build("mini", factory=RebuiltMini)
    assert cache.hits == 2


# ----------------------------------------------------------------------
# the recency index
# ----------------------------------------------------------------------
def _entry_names(cache):
    return [path.name for path in cache._entries_oldest_first()]


def test_recency_survives_identical_mtimes(tmp_path):
    """The satellite's motivating failure: on a coarse-mtime filesystem
    every entry can share one mtime, yet eviction order must still follow
    last-load order.  Equalize all mtimes and check the index decides."""
    cache = ArtifactCache(tmp_path / "cache", max_entries=2)
    cache.load_or_build("word")
    cache.load_or_build("powerpoint")
    for name in ("word", "powerpoint"):
        os.utime(cache.path_for(name), (1000, 1000))  # same coarse tick
    assert _entry_names(cache) == [cache.path_for("word").name,
                                   cache.path_for("powerpoint").name]
    cache.load_or_build("excel")  # evicts word, the least recently loaded
    assert not cache.path_for("word").exists()
    assert cache.path_for("powerpoint").exists()


def test_recency_index_is_a_dotfile_not_a_cache_entry(tmp_path):
    cache = ArtifactCache(tmp_path / "cache", max_entries=1)
    cache.load_or_build("word")
    assert (tmp_path / "cache" / INDEX_NAME).exists()
    # The index never shows up as an evictable entry.
    assert _entry_names(cache) == [cache.path_for("word").name]
    stats = cache.gc(max_total_bytes=0)
    assert stats["evicted"] == 1
    assert (tmp_path / "cache" / INDEX_NAME).exists()


def test_foreign_entries_fall_back_to_mtime(tmp_path):
    """Entries some other writer dropped into the directory (absent from
    the index) still order deterministically by mtime."""
    cache = ArtifactCache(tmp_path / "cache")
    cache.load_or_build("word")
    foreign = tmp_path / "cache" / "foreign-entry.json"
    foreign.write_text("{}", encoding="utf-8")
    os.utime(foreign, (1, 1))  # ancient
    assert _entry_names(cache)[0] == "foreign-entry.json"


# ----------------------------------------------------------------------
# gc(): age and size bounds
# ----------------------------------------------------------------------
def _age_entry(cache, app_name: str, age_ns: int) -> None:
    """Rewrite the recency index so one entry looks ``age_ns`` old."""
    index_path = cache.cache_dir / INDEX_NAME
    index = json.loads(index_path.read_text(encoding="utf-8"))
    name = cache.path_for(app_name).name
    index[name] = index[name] - age_ns
    index_path.write_text(json.dumps(index), encoding="utf-8")


def test_gc_age_bound_evicts_only_stale_entries(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    cache.load_or_build("word")
    cache.load_or_build("powerpoint")
    _age_entry(cache, "word", int(3600e9))  # one hour old
    with use_sink(AggregatingSink()) as sink:
        stats = cache.gc(max_age_s=600)
    assert stats["evicted"] == 1 and stats["reclaimed_bytes"] > 0
    assert not cache.path_for("word").exists()
    assert cache.path_for("powerpoint").exists()
    assert stats["remaining_entries"] == 1
    assert sink.count("cache_evicted") == 1
    assert sink.count("cache_gc") == 1
    assert cache.evictions == 1


def test_gc_size_bound_evicts_oldest_first_until_budget_holds(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    for app_name in ("word", "powerpoint", "excel"):
        cache.load_or_build(app_name)
    keep = cache.path_for("excel").stat().st_size  # the newest entry
    stats = cache.gc(max_total_bytes=keep)
    assert stats["evicted"] == 2
    assert not cache.path_for("word").exists()
    assert not cache.path_for("powerpoint").exists()
    assert cache.path_for("excel").exists()
    assert stats["remaining_bytes"] <= keep


def test_gc_without_bounds_is_an_inventory_noop(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    cache.load_or_build("word")
    with use_sink(AggregatingSink()) as sink:
        stats = cache.gc()
    assert stats["evicted"] == 0
    assert stats["remaining_entries"] == 1
    assert sink.count("cache_gc") == 1
    assert cache.path_for("word").exists()


def test_gc_enforces_both_bounds_together(tmp_path):
    """Acceptance: one sweep applies the age bound, then the byte budget."""
    cache = ArtifactCache(tmp_path / "cache")
    for app_name in ("word", "powerpoint", "excel"):
        cache.load_or_build(app_name)
    _age_entry(cache, "powerpoint", int(3600e9))
    stats = cache.gc(max_age_s=600, max_total_bytes=0)
    assert stats["evicted"] == 3
    assert stats["remaining_entries"] == 0 and stats["remaining_bytes"] == 0
    assert cache.evictions == 3


def test_gc_tolerates_corrupt_index(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    cache.load_or_build("word")
    (tmp_path / "cache" / INDEX_NAME).write_text("not json", encoding="utf-8")
    stats = cache.gc(max_total_bytes=0)  # falls back to mtimes, still sweeps
    assert stats["evicted"] == 1


def test_inventory_lists_entries_with_sizes_and_ages(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    cache.load_or_build("word")
    rows = cache.inventory()
    assert len(rows) == 1
    assert rows[0]["entry"] == cache.path_for("word").name
    assert rows[0]["bytes"] > 0 and rows[0]["age_s"] >= 0.0


# ----------------------------------------------------------------------
# the CLI: repro cache stats / gc
# ----------------------------------------------------------------------
@pytest.fixture
def warm_cache_dir(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    cache.load_or_build("word")
    cache.load_or_build("powerpoint")
    return tmp_path / "cache"


def test_cache_stats_lists_entries(warm_cache_dir, capsys):
    assert main(["cache", "stats", "--cache-dir", str(warm_cache_dir)]) == 0
    output = capsys.readouterr().out
    assert "word-" in output and "powerpoint-" in output
    assert "2 entries" in output


def test_cache_stats_on_empty_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["cache", "stats", "--cache-dir", str(empty)]) == 0
    assert "empty" in capsys.readouterr().out


def test_cache_stats_requires_a_directory(tmp_path):
    with pytest.raises(SystemExit, match="not a directory"):
        main(["cache", "stats", "--cache-dir", str(tmp_path / "missing")])


def test_cache_gc_cli_enforces_size_bound(warm_cache_dir, capsys):
    assert main(["cache", "gc", "--cache-dir", str(warm_cache_dir),
                 "--max-bytes", "0"]) == 0
    output = capsys.readouterr().out
    assert "evicted 2 entries" in output
    assert "0 remaining" in output
    assert [p.name for p in warm_cache_dir.glob("*.json")
            if not p.name.startswith(".")] == []


def test_cache_gc_cli_records_registry_run(warm_cache_dir, tmp_path, capsys):
    """Acceptance: gc eviction counters are visible through `repro runs
    show` when the sweep is recorded in a registry."""
    registry = tmp_path / "registry"
    assert main(["cache", "gc", "--cache-dir", str(warm_cache_dir),
                 "--max-bytes", "0", "--registry", str(registry)]) == 0
    out = capsys.readouterr().out
    assert "recorded run" in out
    run_id = next(line.split()[2] for line in out.splitlines()
                  if line.startswith("recorded run"))
    assert main(["runs", "show", run_id, "--registry", str(registry)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executor"] == "cache-gc"
    assert payload["counters"]["cache_gc"] == 1
    assert payload["counters"]["cache_evicted"] == 2
    assert payload["context"]["evicted"] == 2


def test_cache_gc_cli_without_bounds_warns(warm_cache_dir, capsys):
    assert main(["cache", "gc", "--cache-dir", str(warm_cache_dir)]) == 0
    captured = capsys.readouterr()
    assert "nothing to evict" in captured.err
    assert len([p for p in warm_cache_dir.glob("*.json")
                if not p.name.startswith(".")]) == 2
