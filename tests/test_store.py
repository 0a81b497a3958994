"""Unit tests for the object-store abstraction (conditional-write contract).

Both backends must agree on the semantics the broker is built on —
create-if-absent and compare-and-swap where exactly one racer wins — and
the filesystem backend must additionally hold up as a deployable store:
stale etags from arbitrarily far back, persistence across instances,
writers in other threads and other processes, and corrupt value files.
"""

import json
import multiprocessing
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import store as store_module
from repro.bench.shard import ShardError
from repro.bench.store import (
    FileSystemObjectStore,
    InMemoryObjectStore,
    RetryPolicy,
    call_with_retries,
)

STORE_KINDS = ("memory", "fs")


def make_store(kind, tmp_path):
    if kind == "memory":
        return InMemoryObjectStore()
    return FileSystemObjectStore(tmp_path / "store")


@pytest.fixture(params=STORE_KINDS)
def store(request, tmp_path):
    return make_store(request.param, tmp_path)


# ----------------------------------------------------------------------
# the conditional-write contract (both backends)
# ----------------------------------------------------------------------
def test_put_if_absent_creates_exactly_once(store):
    assert store.get("a") is None
    assert store.put_if_absent("a", b"one") is True
    assert store.put_if_absent("a", b"two") is False  # already exists
    data, etag = store.get("a")
    assert data == b"one" and etag


def test_put_if_match_swaps_only_against_the_current_etag(store):
    store.put_if_absent("a", b"one")
    _, etag = store.get("a")
    assert store.put_if_match("a", b"two", etag) is True
    data, new_etag = store.get("a")
    assert data == b"two" and new_etag != etag
    # The superseded etag never wins again.
    assert store.put_if_match("a", b"three", etag) is False
    assert store.get("a")[0] == b"two"


def test_stale_etag_from_arbitrarily_far_back_still_fails(store):
    """Regression for the filesystem emulation: superseded versions must
    keep blocking CAS attempts no matter how many swaps ago they were."""
    store.put_if_absent("a", b"v0")
    etags = [store.get("a")[1]]
    for index in range(1, 5):
        assert store.put_if_match("a", b"v%d" % index, etags[-1]) is True
        etags.append(store.get("a")[1])
    for stale in etags[:-1]:
        assert store.put_if_match("a", b"rogue", stale) is False
    assert store.get("a")[0] == b"v4"


def test_put_if_match_on_missing_key_fails(store):
    store.put_if_absent("a", b"one")
    _, etag = store.get("a")
    store.delete("a")
    assert store.put_if_match("a", b"two", etag) is False
    assert store.get("a") is None


def test_delete_and_recreate(store):
    store.put_if_absent("a", b"one")
    assert store.delete("a") is True
    assert store.get("a") is None
    assert store.delete("a") is False  # already gone
    assert store.put_if_absent("a", b"fresh") is True
    assert store.get("a")[0] == b"fresh"


def test_list_prefix_filters_and_sorts(store):
    for key in ("lease/shard-001", "lease/shard-000", "result/shard-000",
                "plan.json"):
        store.put_if_absent(key, b"x")
    assert store.list_prefix("lease/") == ["lease/shard-000",
                                           "lease/shard-001"]
    assert store.list_prefix("result/") == ["result/shard-000"]
    assert store.list_prefix("") == ["lease/shard-000", "lease/shard-001",
                                     "plan.json", "result/shard-000"]
    store.delete("lease/shard-000")
    assert store.list_prefix("lease/") == ["lease/shard-001"]


#: Keys whose parents nest, share leaf prefixes, or differ only by a
#: leading slash, so listings cut across (and inside) parent boundaries.
NESTED_KEYS = ("y", "/y", "/", "a/", "a/b", "a/bc", "a/b/c", "a/b/", "ab",
               "ab/c", "lease/p/shard-000", "plans/x")


def test_list_prefix_agrees_across_parent_boundaries(store):
    for key in NESTED_KEYS:
        store.put_if_absent(key, key.encode())
    for prefix in ("", "/", "y", "a", "a/", "a/b", "a/b/", "a/b/c", "ab",
                   "ab/", "z", "lease/p", "p", "plans/"):
        assert store.list_prefix(prefix) == sorted(
            key for key in NESTED_KEYS if key.startswith(prefix)), prefix
    for key in NESTED_KEYS:
        assert store.get(key)[0] == key.encode()


def test_keys_with_slashes_and_odd_characters_round_trip(store):
    key = "lease/shard 01:of#02.json"
    store.put_if_absent(key, b"data")
    assert store.get(key)[0] == b"data"
    assert store.list_prefix("lease/") == [key]


def test_empty_and_non_bytes_values_are_rejected(store):
    with pytest.raises(ShardError, match="non-empty"):
        store.put_if_absent("a", b"")
    with pytest.raises(ShardError, match="bytes"):
        store.put_if_absent("a", "text")
    store.put_if_absent("a", b"one")
    with pytest.raises(ShardError, match="non-empty"):
        store.put_if_match("a", b"", store.get("a")[1])


def test_concurrent_cas_increments_lose_no_updates(store):
    """N threads × M read-modify-write increments through the CAS retry
    loop: every update lands exactly once on both backends.

    A filesystem read that keeps losing to the other writers may raise
    TransientStoreError (part of the store contract); like the broker, the
    loop absorbs it with bounded retries."""
    store.put_if_absent("counter", b"0")
    threads, increments = 4, 25

    def bump():
        policy = RetryPolicy()
        for _ in range(increments):
            while True:
                data, etag = call_with_retries(lambda: store.get("counter"),
                                               op="get", key="counter",
                                               policy=policy)
                value = int(data.decode("ascii")) + 1
                if store.put_if_match("counter", str(value).encode("ascii"),
                                      etag):
                    break

    workers = [threading.Thread(target=bump) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert int(store.get("counter")[0]) == threads * increments


# ----------------------------------------------------------------------
# filesystem-backend specifics
# ----------------------------------------------------------------------
def test_fs_store_persists_across_instances(tmp_path):
    first = FileSystemObjectStore(tmp_path / "store")
    first.put_if_absent("plan.json", b'{"kind": "x"}')
    _, etag = first.get("plan.json")
    second = FileSystemObjectStore(tmp_path / "store")
    data, same_etag = second.get("plan.json")
    assert data == b'{"kind": "x"}' and same_etag == etag
    # CAS through the second instance invalidates the first's etag.
    assert second.put_if_match("plan.json", b'{"kind": "y"}', etag)
    assert first.put_if_match("plan.json", b"rogue", etag) is False


def test_fs_store_rejects_malformed_etag(tmp_path):
    store = FileSystemObjectStore(tmp_path / "store")
    store.put_if_absent("a", b"one")
    with pytest.raises(ShardError, match="malformed etag"):
        store.put_if_match("a", b"two", "soon")


def test_fs_store_rejects_empty_key(tmp_path):
    store = FileSystemObjectStore(tmp_path / "store")
    with pytest.raises(ShardError, match="non-empty"):
        store.get("")


def test_fs_store_leaves_no_temp_files_behind(tmp_path):
    store = FileSystemObjectStore(tmp_path / "store")
    store.put_if_absent("a", b"one")
    store.put_if_match("a", b"two", store.get("a")[1])
    store.put_if_match("a", b"rogue", "v1")  # failed CAS
    store.delete("a")
    assert sorted(path.name for path in store.root.iterdir()
                  if path.name.startswith(".")) == [".lock"]
    assert [path.name for path in store._key_dir("a").iterdir()] == ["value"]


def test_fs_store_layout_is_one_directory_per_key(tmp_path):
    """The on-disk layout is part of the deployable contract: one
    directory per key holding one value file — a fixed-width version
    header, then the payload."""
    store = FileSystemObjectStore(tmp_path / "store")
    store.put_if_absent("lease/shard-000.json", b'{"state": "queued"}')
    key_dir = store._key_dir("lease/shard-000.json")
    assert key_dir.is_dir()
    assert [path.name for path in key_dir.iterdir()] == ["value"]
    header, payload = (key_dir / "value").read_bytes().split(b"\n", 1)
    assert header == b"0" * 19 + b"1"
    assert json.loads(payload) == {"state": "queued"}
    assert store.get("lease/shard-000.json")[1] == "v1"
    assert store.delete("lease/shard-000.json") is True
    # The tombstone: the header alone, one version on.
    assert (key_dir / "value").read_bytes() == b"0" * 19 + b"2\n"


def test_fs_store_hot_key_keeps_one_value_file(tmp_path):
    """Regression: a heartbeat-renewed lease key must not grow one file per
    renewal — after 200 swaps its directory holds exactly one value file."""
    store = FileSystemObjectStore(tmp_path / "store")
    store.put_if_absent("lease", b"v0")
    for index in range(1, 201):
        data, etag = store.get("lease")
        assert store.put_if_match("lease", b"v%d" % index, etag) is True
    assert store.get("lease")[0] == b"v200"
    assert [path.name for path in store._key_dir("lease").iterdir()] \
        == ["value"]


def test_fs_store_pruned_ancestry_etags_still_lose(tmp_path):
    """Every historical etag — kept, truncated, or pruned away — must keep
    failing CAS after hundreds of swaps, and must not disturb the value."""
    store = FileSystemObjectStore(tmp_path / "store")
    store.put_if_absent("lease", b"v0")
    etags = [store.get("lease")[1]]
    for index in range(1, 101):
        assert store.put_if_match("lease", b"v%d" % index, etags[-1])
        etags.append(store.get("lease")[1])
    for stale in etags[:-1]:  # includes generations the floor pruned
        assert store.put_if_match("lease", b"rogue", stale) is False
        assert store.get("lease")[0] == b"v100"
    # The current etag still works after all those failed attempts.
    assert store.put_if_match("lease", b"v101", etags[-1]) is True
    assert store.get("lease")[0] == b"v101"


def test_pre_delete_etags_never_match_after_recreation(store):
    """ABA regression: an etag read before a delete must keep losing after
    the key is re-created, on both backends identically."""
    store.put_if_absent("k", b"first")
    _, before_delete = store.get("k")
    assert store.delete("k") is True
    assert store.put_if_absent("k", b"second") is True
    assert store.put_if_match("k", b"rogue", before_delete) is False
    data, fresh = store.get("k")
    assert data == b"second" and fresh != before_delete
    assert store.put_if_match("k", b"third", fresh) is True


def test_delete_vs_cas_race_exactly_one_wins(store):
    """A delete and a CAS holding the current etag race: whichever lands
    first wins and the loser reports failure."""
    store.put_if_absent("k", b"v0")
    _, etag = store.get("k")
    assert store.delete("k") is True  # delete lands first
    assert store.put_if_match("k", b"v1", etag) is False
    assert store.get("k") is None
    # And the other order: CAS lands first, delete still works after.
    store.put_if_absent("k", b"w0")
    _, etag = store.get("k")
    assert store.put_if_match("k", b"w1", etag) is True
    assert store.delete("k") is True
    assert store.delete("k") is False  # idempotent second delete


def test_fs_list_prefix_survives_a_key_deleted_mid_listing(tmp_path,
                                                           monkeypatch):
    """Regression: a key directory deleted (external cleanup) between the
    bucket scan and the per-key check must drop only that key from the
    listing — not abort every other key's result with a
    ``FileNotFoundError``."""
    store = FileSystemObjectStore(tmp_path / "store")
    store.put_if_absent("doomed", b"v")
    store.put_if_absent("survivor", b"v")
    doomed = store._key_dir("doomed")
    real_stat = store_module.os.stat

    def interleaved_delete(path, *args, **kwargs):
        if Path(path).parent == doomed and doomed.exists():
            # The race, made deterministic: the whole directory vanishes
            # right after the bucket scan saw it.
            (doomed / "value").unlink()
            doomed.rmdir()
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(store_module.os, "stat", interleaved_delete)
    assert store.list_prefix("") == ["survivor"]
    monkeypatch.undo()
    assert store.list_prefix("") == ["survivor"]  # the key stayed gone


@pytest.mark.parametrize("raw", [b"", b"garbage", b"0" * 19 + b"x\npayload",
                                 b"0" * 20 + b"payload", b"0" * 19])
def test_fs_corrupt_value_file_raises_labeled_error(tmp_path, raw):
    """A value file whose version header does not parse (a torn write or
    bit rot) fails every op on that key with a ShardError naming the store
    and the key, never a bare ValueError; other keys are unaffected."""
    store = FileSystemObjectStore(tmp_path / "store")
    store.put_if_absent("lease/s0", b"v")
    store.put_if_absent("lease/s1", b"v")
    (store._key_dir("lease/s0") / "value").write_bytes(raw)
    ops = (lambda: store.get("lease/s0"),
           lambda: store.put_if_absent("lease/s0", b"w"),
           lambda: store.put_if_match("lease/s0", b"w", "v1"),
           lambda: store.delete("lease/s0"))
    for op in ops:
        with pytest.raises(ShardError, match="corrupt value file") as caught:
            op()
        assert str(store.root) in str(caught.value)
        assert "'lease/s0'" in str(caught.value)
    assert store.get("lease/s1") == (b"v", "v1")


# ----------------------------------------------------------------------
# writers in other processes
# ----------------------------------------------------------------------
def _spawned_cas_increments(root, attempts, start, results):
    """One spawned process: two threads each try ``attempts`` CAS
    increments of ``counter``; reports each thread's count of swaps that
    returned True, or the error that stopped it."""
    store = FileSystemObjectStore(root)
    outcomes = []

    def bump():
        won = 0
        try:
            for _ in range(attempts):
                data, etag = store.get("counter")
                won += store.put_if_match("counter",
                                          b"%d" % (int(data) + 1), etag)
        except Exception as error:  # a torn write must fail the test
            outcomes.append(repr(error))
        else:
            outcomes.append(won)

    threads = [threading.Thread(target=bump) for _ in range(2)]
    start.wait()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    results.put(outcomes)


def test_fs_cas_excludes_writers_in_other_processes(tmp_path):
    """The thread lock alone serializes one process's writers; this proves
    the flock excludes another process's.  Every CAS that returned True
    must be one increment of the final count — no more, no fewer."""
    root = tmp_path / "store"
    FileSystemObjectStore(root).put_if_absent("counter", b"0")
    context = multiprocessing.get_context("spawn")
    start, results = context.Barrier(2), context.Queue()
    processes = [context.Process(target=_spawned_cas_increments,
                                 args=(str(root), 150, start, results))
                 for _ in range(2)]
    for process in processes:
        process.start()
    wins = [won for _ in processes for won in results.get(timeout=300)]
    for process in processes:
        process.join(timeout=60)
    assert all(isinstance(won, int) for won in wins), wins
    assert [process.exitcode for process in processes] == [0, 0]
    assert int(FileSystemObjectStore(root).get("counter")[0]) == sum(wins)


def _forked_write(root, key):
    FileSystemObjectStore(root).put_if_absent(key, b"child")


def test_fs_store_fork_lands_between_writes(tmp_path):
    """A process forked while another thread writes must neither inherit a
    held write lock (the child would hang on its first write) nor keep the
    parent's flock held through its copy of the lock file descriptor."""
    store = FileSystemObjectStore(tmp_path / "store")
    store.put_if_absent("counter", b"0")
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            data, etag = store.get("counter")
            store.put_if_match("counter", b"%d" % (int(data) + 1), etag)

    writer = threading.Thread(target=hammer)
    writer.start()
    context = multiprocessing.get_context("fork")
    try:
        for index in range(5):
            child = context.Process(target=_forked_write,
                                    args=(str(store.root), f"child/{index}"))
            child.start()
            child.join(timeout=30)
            if child.exitcode is None:
                child.kill()
            assert child.exitcode == 0, f"child {index} hung or failed"
    finally:
        stop.set()
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert store.list_prefix("child/") == [f"child/{index}"
                                           for index in range(5)]


# ----------------------------------------------------------------------
# key shapes under the bucketed layout (both backends)
# ----------------------------------------------------------------------
#: Keys that stress the parent/leaf split: empty parents and leaves,
#: doubled and trailing slashes, characters that quoting must escape, text
#: that looks like an escape, and names that read as path navigation.
KEY_SHAPES = ("y", "/y", "/", "//", "a/", "a//b", "%2F", "a%2Fb", "p", "k",
              "pk/kp", "ü/ß", "a b/c d", ".", "..", "../x", "x/..",
              "lease/p/shard-000", "n" * 120 + "/" + "m" * 120)


@pytest.mark.parametrize("key", KEY_SHAPES)
def test_every_key_shape_survives_a_full_lifecycle(store, key):
    """create, read, swap, list, delete: each shape alone in the store."""
    assert store.put_if_absent(key, b"v0") is True
    data, etag = store.get(key)
    assert data == b"v0"
    assert store.list_prefix("") == [key]
    assert store.list_prefix(key) == [key]
    assert store.list_prefix(key[:-1]) == [key]
    assert store.list_prefix(key + "x") == []
    assert store.put_if_match(key, b"v1", etag) is True
    assert store.get(key)[0] == b"v1"
    assert store.delete(key) is True
    assert store.get(key) is None
    assert store.list_prefix("") == []
    assert store.put_if_absent(key, b"v2") is True
    assert store.list_prefix("") == [key]


@st.composite
def store_ops(draw):
    """Ops ``(name, key or prefix, payload, pick)`` over a few keys drawn
    from :data:`KEY_SHAPES`, so one sequence revisits each key.  ``pick``
    chooses a CAS etag among every etag the key has ever had, current or
    superseded, before a delete or after it."""
    keys = st.sampled_from(draw(st.lists(st.sampled_from(KEY_SHAPES),
                                         min_size=1, max_size=3,
                                         unique=True)))
    payloads = st.binary(min_size=1, max_size=4)
    prefixes = keys.flatmap(
        lambda key: st.integers(0, len(key)).map(lambda cut: key[:cut]))
    return draw(st.lists(st.one_of(
        st.tuples(st.just("put_if_absent"), keys, payloads, st.just(0)),
        st.tuples(st.just("put_if_match"), keys, payloads,
                  st.integers(0, 63)),
        st.tuples(st.sampled_from(("delete", "get")), keys, st.just(b""),
                  st.just(0)),
        st.tuples(st.just("list_prefix"), prefixes, st.just(b""),
                  st.just(0))), min_size=1, max_size=40))


@settings(max_examples=150, deadline=None)
@given(store_ops())
def test_fs_store_agrees_with_the_reference_store(ops):
    """Differential check: any op sequence gives the same return values,
    payloads and listings on the filesystem store as on the in-memory
    reference, and an etag matches on one store exactly when its
    counterpart matches on the other."""
    reference = InMemoryObjectStore()
    with tempfile.TemporaryDirectory() as root:
        store = FileSystemObjectStore(root)
        # Per key, every (reference etag, fs etag) pair it has had.
        history = {}

        def observe(key):
            expected, actual = reference.get(key), store.get(key)
            assert (expected is None) == (actual is None), key
            if expected is None:
                return
            assert expected[0] == actual[0], key
            pairs = history.setdefault(key, [])
            if (expected[1], actual[1]) not in pairs:
                # A new etag on one store is a new etag on the other.
                assert all(expected[1] != ref_etag and actual[1] != fs_etag
                           for ref_etag, fs_etag in pairs), (key, pairs)
                pairs.append((expected[1], actual[1]))

        for name, key, payload, pick in ops:
            if name == "list_prefix":
                assert store.list_prefix(key) == reference.list_prefix(key)
                continue
            if name == "put_if_match":
                pairs = history.get(key)
                if not pairs:
                    continue
                ref_etag, fs_etag = pairs[pick % len(pairs)]
                assert store.put_if_match(key, payload, fs_etag) == \
                    reference.put_if_match(key, payload, ref_etag), (key, pick)
            elif name != "get":  # observe() below compares the reads
                args = (key, payload) if payload else (key,)
                assert getattr(store, name)(*args) \
                    == getattr(reference, name)(*args), (name, key)
            observe(key)


#: Pairs a careless encoding of the parent/leaf split would map onto one
#: object: the slash that stays in the bucket name, a slash versus its own
#: escape, a doubled slash, and a literal percent sign.
LOOKALIKE_KEYS = (("y", "/y"), ("a", "a/"), ("a/b", "a%2Fb"),
                  ("a/b", "a/b/"), ("%", "%25"), ("p/x", "k/x"),
                  ("a//b", "a/b"), ("a/b/c", "a/b%2Fc"))


@pytest.mark.parametrize("first, second", LOOKALIKE_KEYS)
def test_lookalike_keys_stay_separate_objects(store, first, second):
    assert store.put_if_absent(first, b"first") is True
    assert store.put_if_absent(second, b"second") is True
    assert store.get(first)[0] == b"first"
    assert store.get(second)[0] == b"second"
    assert store.list_prefix("") == sorted((first, second))
    assert store.delete(first) is True
    assert store.get(first) is None
    assert store.get(second)[0] == b"second"
    assert store.list_prefix("") == [second]


# ----------------------------------------------------------------------
# the filesystem listing reads only what the prefix can match
# ----------------------------------------------------------------------
#: Keys shaped like the broker's: one bucket per plan and object kind.
BROKER_KEYS = ("plans/alpha", "plans/beta",
               "manifest/alpha/s0", "manifest/alpha/s1", "manifest/beta/s0",
               "lease/alpha/s0", "lease/alpha/s1", "lease/beta/s0",
               "result/alpha/s0", "result/beta/s0")


@pytest.mark.parametrize("prefix", ["plans/", "lease/alpha/", "result/beta/",
                                    "manifest/", "lease/al", "r", "zzz/"])
def test_fs_list_prefix_opens_only_buckets_that_can_match(tmp_path,
                                                          monkeypatch,
                                                          prefix):
    store = FileSystemObjectStore(tmp_path / "store")
    for key in BROKER_KEYS:
        store.put_if_absent(key, b"v")
    opened = set()
    real_listdir = store_module.os.listdir

    def recording_listdir(path):
        opened.add(Path(path))
        return real_listdir(path)

    monkeypatch.setattr(store_module.os, "listdir", recording_listdir)
    listed = store.list_prefix(prefix)
    assert listed == sorted(key for key in BROKER_KEYS
                            if key.startswith(prefix))
    # Every bucket holding a match is opened, and no other bucket is.
    buckets = {path for path in opened if path.parent == store.root}
    assert buckets == {store._key_dir(key).parent for key in BROKER_KEYS
                       if key.startswith(prefix)}
    # Inside a bucket, only the matching keys' directories are examined.
    key_dirs = {path for path in opened if path.parent.parent == store.root}
    assert key_dirs <= {store._key_dir(key) for key in listed}


def test_fs_list_prefix_ignores_foreign_entries(tmp_path):
    """Files dropped into the store root or a bucket by hand are not
    keys: the listing skips them instead of failing or inventing keys."""
    store = FileSystemObjectStore(tmp_path / "store")
    store.put_if_absent("lease/s0", b"v")
    (store.root / "README").write_text("not a bucket")
    (store.root / "p-stray-file").write_text("a file where a bucket goes")
    (store._key_dir("lease/s0").parent / "notes.txt").write_text("stray")
    assert store.list_prefix("") == ["lease/s0"]
    assert store.list_prefix("lease/") == ["lease/s0"]
    assert store.get("lease/s0")[0] == b"v"
